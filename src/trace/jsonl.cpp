#include "trace/jsonl.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>

namespace asfsim::trace {

namespace {

void put_u64(std::string& out, const char* key, std::uint64_t v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%" PRIu64, key, v);
  out += buf;
}

void put_str(std::string& out, const char* key, const char* v) {
  out += ",\"";
  out += key;
  out += "\":\"";
  out += v;
  out += '"';
}

void put_bool(std::string& out, const char* key, bool v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += v ? "true" : "false";
}

void put_prov(std::string& out, const TraceEvent& ev) {
  if (!ev.has_prov) return;
  put_u64(out, "victim_site", ev.victim_site);
  put_u64(out, "victim_obj", ev.victim_obj);
  put_u64(out, "victim_sub", ev.victim_sub);
  put_u64(out, "req_site", ev.req_site);
  put_u64(out, "req_obj", ev.req_obj);
}

void put_footprint(std::string& out, const TraceEvent& ev) {
  put_u64(out, "read_lines", ev.read_lines);
  put_u64(out, "write_lines", ev.write_lines);
  put_u64(out, "read_subs", ev.read_subs);
  put_u64(out, "write_subs", ev.write_subs);
}

bool parse_kind(std::string_view s, TraceEventKind& out) {
  for (std::size_t i = 0; i < kTraceEventKinds; ++i) {
    const auto k = static_cast<TraceEventKind>(i);
    if (s == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

bool parse_cause(std::string_view s, AbortCause& out) {
  for (const AbortCause c : {AbortCause::kConflict, AbortCause::kCapacity,
                             AbortCause::kUser, AbortCause::kLockWait}) {
    if (s == to_string(c)) {
      out = c;
      return true;
    }
  }
  return false;
}

bool parse_type(std::string_view s, ConflictType& out) {
  for (const ConflictType t :
       {ConflictType::kWAR, ConflictType::kRAW, ConflictType::kWAW}) {
    if (s == to_string(t)) {
      out = t;
      return true;
    }
  }
  return false;
}

/// Pull-parser over `{"key":value,...}` with uint / bool / string values —
/// exactly the grammar to_jsonl emits, rejected strictly otherwise.
class LineParser {
 public:
  explicit LineParser(std::string_view line) : rest_(line) {
    while (!rest_.empty() &&
           (rest_.back() == '\n' || rest_.back() == '\r')) {
      rest_.remove_suffix(1);
    }
  }

  bool open() { return eat('{'); }
  bool close() { return eat('}') && rest_.empty(); }
  [[nodiscard]] bool at_close() const {
    return !rest_.empty() && rest_[0] == '}';
  }

  /// Parse the next `"key":` pair header into `key`.
  bool key(std::string_view& key) {
    if (!comma_done_ && !eat(',')) return false;
    comma_done_ = false;
    if (!eat('"')) return false;
    const std::size_t q = rest_.find('"');
    if (q == std::string_view::npos) return false;
    key = rest_.substr(0, q);
    rest_.remove_prefix(q + 1);
    return eat(':');
  }

  bool u64(std::uint64_t& v) {
    if (rest_.empty() || rest_[0] < '0' || rest_[0] > '9') return false;
    if (rest_[0] == '0' && rest_.size() > 1 && rest_[1] >= '0' &&
        rest_[1] <= '9') {
      return false;  // leading zero: to_jsonl never writes one
    }
    v = 0;
    while (!rest_.empty() && rest_[0] >= '0' && rest_[0] <= '9') {
      const auto d = static_cast<std::uint64_t>(rest_[0] - '0');
      if (v > (~std::uint64_t{0} - d) / 10) return false;  // would wrap
      v = v * 10 + d;
      rest_.remove_prefix(1);
    }
    return true;
  }

  bool boolean(bool& v) {
    if (rest_.substr(0, 4) == "true") {
      v = true;
      rest_.remove_prefix(4);
      return true;
    }
    if (rest_.substr(0, 5) == "false") {
      v = false;
      rest_.remove_prefix(5);
      return true;
    }
    return false;
  }

  bool str(std::string_view& v) {
    if (!eat('"')) return false;
    const std::size_t q = rest_.find('"');
    if (q == std::string_view::npos) return false;
    v = rest_.substr(0, q);
    rest_.remove_prefix(q + 1);
    return true;
  }

  /// First pair carries no leading comma.
  void begin_object() { comma_done_ = true; }

 private:
  bool eat(char c) {
    if (rest_.empty() || rest_[0] != c) return false;
    rest_.remove_prefix(1);
    return true;
  }

  std::string_view rest_;
  bool comma_done_ = false;
};

}  // namespace

void to_jsonl(const TraceEvent& ev, std::string& out) {
  out += "{\"kind\":\"";
  out += to_string(ev.kind);
  out += '"';
  switch (ev.kind) {
    case TraceEventKind::kBegin:
      put_u64(out, "core", ev.core);
      put_u64(out, "cycle", ev.cycle);
      break;
    case TraceEventKind::kCommit:
      put_u64(out, "core", ev.core);
      put_u64(out, "cycle", ev.cycle);
      put_u64(out, "start", ev.span_begin);
      put_u64(out, "retries", ev.retries);
      put_u64(out, "wasted", ev.wasted);
      put_footprint(out, ev);
      break;
    case TraceEventKind::kAbort:
      put_u64(out, "core", ev.core);
      put_u64(out, "cycle", ev.cycle);
      put_u64(out, "start", ev.span_begin);
      put_str(out, "cause", to_string(ev.cause));
      put_u64(out, "wasted", ev.wasted);
      put_footprint(out, ev);
      break;
    case TraceEventKind::kConflict:
      put_u64(out, "core", ev.core);
      put_u64(out, "other", ev.other);
      put_u64(out, "cycle", ev.cycle);
      put_u64(out, "line", ev.line);
      put_str(out, "type", to_string(ev.type));
      put_bool(out, "false", ev.is_false);
      put_u64(out, "probe_mask", ev.probe_mask);
      put_u64(out, "victim_mask", ev.victim_mask);
      put_prov(out, ev);
      break;
    case TraceEventKind::kAvoided:
      put_u64(out, "core", ev.core);
      put_u64(out, "other", ev.other);
      put_u64(out, "cycle", ev.cycle);
      put_u64(out, "line", ev.line);
      put_u64(out, "probe_mask", ev.probe_mask);
      put_u64(out, "victim_mask", ev.victim_mask);
      put_prov(out, ev);
      break;
    case TraceEventKind::kFallback:
      put_u64(out, "core", ev.core);
      put_u64(out, "cycle", ev.cycle);
      put_u64(out, "start", ev.span_begin);
      put_u64(out, "retries", ev.retries);
      put_u64(out, "wasted", ev.wasted);
      break;
    case TraceEventKind::kBackoff:
      put_u64(out, "core", ev.core);
      put_u64(out, "cycle", ev.cycle);
      put_u64(out, "start", ev.span_begin);
      break;
    case TraceEventKind::kCounter:
      put_u64(out, "cycle", ev.cycle);
      put_u64(out, "live_tx", ev.live_tx);
      put_u64(out, "commits", ev.commits);
      put_u64(out, "aborts", ev.aborts);
      put_u64(out, "bus_wait", ev.bus_wait);
      break;
    case TraceEventKind::kSite:
      put_u64(out, "site", ev.site_id);
      put_str(out, "name", ev.site_name.c_str());
      put_u64(out, "obj_size", ev.site_obj_size);
      put_u64(out, "objects", ev.site_objects);
      put_u64(out, "bytes", ev.site_bytes);
      break;
    case TraceEventKind::kPolicy:
      put_u64(out, "core", ev.core);
      put_u64(out, "other", ev.other);
      put_u64(out, "loser", ev.loser);
      put_u64(out, "cycle", ev.cycle);
      put_u64(out, "line", ev.line);
      break;
    case TraceEventKind::kFallbackAcquired:
      put_u64(out, "core", ev.core);
      put_u64(out, "cycle", ev.cycle);
      put_u64(out, "start", ev.span_begin);
      put_u64(out, "retries", ev.retries);
      break;
  }
  out += "}\n";
}

bool from_jsonl(std::string_view line, TraceEvent& out) {
  out = TraceEvent{};
  LineParser p(line);
  if (!p.open()) return false;
  p.begin_object();

  std::string_view key;
  std::string_view sval;
  if (!p.key(key) || key != "kind" || !p.str(sval) ||
      !parse_kind(sval, out.kind)) {
    return false;
  }

  while (!p.at_close()) {
    if (!p.key(key)) return false;
    if (key == "cause") {
      if (!p.str(sval) || !parse_cause(sval, out.cause)) return false;
    } else if (key == "type") {
      if (!p.str(sval) || !parse_type(sval, out.type)) return false;
    } else if (key == "false") {
      if (!p.boolean(out.is_false)) return false;
    } else if (key == "name") {
      if (!p.str(sval)) return false;
      out.site_name = std::string(sval);
    } else {
      std::uint64_t v = 0;
      if (!p.u64(v)) return false;
      if (key == "core") {
        out.core = static_cast<CoreId>(v);
      } else if (key == "other") {
        out.other = static_cast<CoreId>(v);
      } else if (key == "cycle") {
        out.cycle = v;
      } else if (key == "start") {
        out.span_begin = v;
      } else if (key == "line") {
        out.line = v;
      } else if (key == "probe_mask") {
        out.probe_mask = v;
      } else if (key == "victim_mask") {
        out.victim_mask = v;
      } else if (key == "retries") {
        out.retries = static_cast<std::uint32_t>(v);
      } else if (key == "wasted") {
        out.wasted = v;
      } else if (key == "read_lines") {
        out.read_lines = static_cast<std::uint32_t>(v);
      } else if (key == "write_lines") {
        out.write_lines = static_cast<std::uint32_t>(v);
      } else if (key == "read_subs") {
        out.read_subs = static_cast<std::uint32_t>(v);
      } else if (key == "write_subs") {
        out.write_subs = static_cast<std::uint32_t>(v);
      } else if (key == "live_tx") {
        out.live_tx = static_cast<std::uint32_t>(v);
      } else if (key == "commits") {
        out.commits = v;
      } else if (key == "aborts") {
        out.aborts = v;
      } else if (key == "bus_wait") {
        out.bus_wait = v;
      } else if (key == "victim_site") {
        out.victim_site = static_cast<std::uint32_t>(v);
        out.has_prov = true;
      } else if (key == "victim_obj") {
        out.victim_obj = v;
        out.has_prov = true;
      } else if (key == "victim_sub") {
        out.victim_sub = static_cast<std::uint32_t>(v);
        out.has_prov = true;
      } else if (key == "req_site") {
        out.req_site = static_cast<std::uint32_t>(v);
        out.has_prov = true;
      } else if (key == "req_obj") {
        out.req_obj = v;
        out.has_prov = true;
      } else if (key == "loser") {
        out.loser = static_cast<CoreId>(v);
      } else if (key == "site") {
        out.site_id = static_cast<std::uint32_t>(v);
      } else if (key == "obj_size") {
        out.site_obj_size = v;
      } else if (key == "objects") {
        out.site_objects = v;
      } else if (key == "bytes") {
        out.site_bytes = v;
      } else {
        return false;  // unknown key: not something to_jsonl wrote
      }
    }
  }
  return p.close();
}

void JsonlSink::on_event(const TraceEvent& ev) {
  buf_.clear();
  to_jsonl(ev, buf_);
  os_ << buf_;
}

void JsonlSink::finish(Cycle /*final_cycle*/) { os_.flush(); }

bool for_each_jsonl_event(std::istream& in,
                          const std::function<void(const TraceEvent&)>& fn,
                          std::string& err) {
  std::string line;
  std::uint64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    TraceEvent ev;
    if (!from_jsonl(line, ev)) {
      err = "malformed trace event on line " + std::to_string(lineno);
      return false;
    }
    fn(ev);
  }
  return true;
}

}  // namespace asfsim::trace
