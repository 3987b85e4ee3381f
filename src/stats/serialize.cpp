#include "stats/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <type_traits>
#include <utility>
#include <vector>

namespace asfsim {

namespace {

// The blob is the Stats field table (stats/counters.hpp) written in order:
// the core section, then the opt-in provenance and contention-management
// sections, each opening with its bool presence flag.
//
// v2: appended the per-attempt profile fields (trace subsystem).
// v3: appended tx_latency_hist (per-transaction latency, OLTP reporting).
// v4: appended the opt-in conflict-provenance section. The v4 header is
// only written when the section is present (prov_enabled), so provenance-
// off blobs stay byte-identical to v3 — the kernel-identity goldens hash
// them — while on/off blobs differ only in the version digit and the
// appended section. Older blobs still fail deserialization cleanly; the
// result cache never serves them anyway (the code stamp changed with the
// code).
// v5: appended the opt-in contention-management section (--cm-stats). Like
// v4, the v5 header is only written when its section is present, so cm-off
// blobs remain byte-identical to v4 (or v3 when provenance is off too). A
// v5 blob always carries an explicit prov_enabled flag so the two opt-in
// sections compose in every combination.
//
// Hence the header is "v" + (3 + the last section present), every section
// up to that one carries its flag, and the last one's flag is always 1.
constexpr std::string_view kHeader = "asfsim-stats v";
constexpr char kFirstVersion = '3';

int section_index(const FieldInfo& f) { return static_cast<int>(f.section); }

int last_section(const Stats& s) {
  return static_cast<int>(s.cm_enabled     ? BlobSection::kCm
                          : s.prov_enabled ? BlobSection::kProv
                                           : BlobSection::kCore);
}

// Charset of serialized site-name tokens; matches the sanitizer in
// prov/site_registry.cpp so round-trips are exact.
bool name_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':' ||
         c == '(' || c == ')' || c == '-';
}

/// Appends " <v>" in decimal.
void put_value(std::string& out, std::uint64_t v) {
  char buf[24];
  buf[0] = ' ';
  out.append(buf, std::to_chars(buf + 1, buf + sizeof(buf), v).ptr);
}

void put(std::string& out, const char* key, std::uint64_t v) {
  out += key;
  put_value(out, v);
  out += '\n';
}

template <typename Range>
void put_seq(std::string& out, const char* key, const Range& values) {
  out += key;
  put_value(out, std::size(values));
  for (const std::uint64_t v : values) put_value(out, v);
  out += '\n';
}

template <std::size_t N>
void put(std::string& out, const char* key,
         const std::array<std::uint64_t, N>& values) {
  put_seq(out, key, values);
}

void put(std::string& out, const char* key,
         const std::vector<std::uint64_t>& values) {
  put_seq(out, key, values);
}

void put(std::string& out, const char* key,
         const std::vector<std::string>& names) {
  out += key;
  put_value(out, names.size());
  for (const std::string& name : names) {
    out += ' ';
    out += name;
  }
  out += '\n';
}

/// The per-line map flattens to addr/count pairs sorted by address.
void put(std::string& out, const char* key,
         const AddrMap<std::uint64_t>& by_line) {
  std::vector<std::pair<Addr, std::uint64_t>> sorted;
  sorted.reserve(by_line.size());
  for (const auto& [addr, count] : by_line) sorted.emplace_back(addr, count);
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint64_t> flat;
  flat.reserve(sorted.size() * 2);
  for (const auto& [addr, count] : sorted) {
    flat.push_back(addr);
    flat.push_back(count);
  }
  put_seq(out, key, flat);
}

/// Table visitor writing each field of the sections up to `last`.
class Writer {
 public:
  Writer(std::string& out, int last) : out_(out), last_(last) {}

  template <typename T>
  void operator()(const FieldInfo& f, const T& v) {
    const int section = section_index(f);
    if (section > last_) return;
    if constexpr (std::is_same_v<T, bool>) {
      if (section != 0) on_ = v;  // an opt-in section's presence flag
      put(out_, f.key, v ? 1 : 0);
    } else if (on_) {
      put(out_, f.key, v);
    }
  }

 private:
  std::string& out_;
  int last_;
  bool on_ = true;  // is the current section present?
};

/// Cursor over the blob; every read checks syntax so corruption surfaces
/// as a false return from deserialize_stats, never as garbage stats.
class Reader {
 public:
  explicit Reader(std::string_view blob) : rest_(blob) {}

  bool literal(std::string_view text) {
    if (rest_.substr(0, text.size()) != text) return false;
    rest_.remove_prefix(text.size());
    return true;
  }

  /// One character in [lo, hi], stored in `c`.
  bool one_of(char lo, char hi, char& c) {
    if (rest_.empty() || rest_[0] < lo || rest_[0] > hi) return false;
    c = rest_[0];
    rest_.remove_prefix(1);
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (!literal(" ")) return false;
    if (rest_.empty() || rest_[0] < '0' || rest_[0] > '9') return false;
    if (rest_[0] == '0' && rest_.size() > 1 && rest_[1] >= '0' &&
        rest_[1] <= '9') {
      return false;  // leading zero: serialize_stats never writes one
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

  bool read(std::string_view key, std::uint64_t& v) {
    return literal(key) && u64(v) && literal("\n");
  }

  template <std::size_t N>
  bool read(std::string_view key, std::array<std::uint64_t, N>& values) {
    std::uint64_t n = 0;
    if (!literal(key) || !u64(n) || n != N) return false;
    for (auto& v : values) {
      if (!u64(v)) return false;
    }
    return literal("\n");
  }

  bool read(std::string_view key, std::vector<std::uint64_t>& values) {
    std::uint64_t n = 0;
    if (!literal(key) || !u64(n)) return false;
    // Each value needs >= 2 bytes of input (" 0"), so a count larger than
    // the remaining blob is corruption — reject it before reserving, or a
    // flipped count byte would turn into a giant allocation.
    if (n > rest_.size() / 2) return false;
    values.clear();
    values.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t v = 0;
      if (!u64(v)) return false;
      values.push_back(v);
    }
    return literal("\n");
  }

  /// Whitespace-delimited name tokens (site names; restricted charset).
  bool read(std::string_view key, std::vector<std::string>& values) {
    std::uint64_t n = 0;
    if (!literal(key) || !u64(n)) return false;
    if (n > rest_.size() / 2) return false;  // same bound as the numbers
    values.clear();
    values.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!literal(" ")) return false;
      std::size_t len = 0;
      while (len < rest_.size() && name_char_ok(rest_[len])) ++len;
      if (len == 0) return false;
      values.emplace_back(rest_.substr(0, len));
      rest_.remove_prefix(len);
    }
    return literal("\n");
  }

  bool read(std::string_view key, AddrMap<std::uint64_t>& by_line) {
    std::vector<std::uint64_t> flat;
    if (!read(key, flat) || flat.size() % 2 != 0) return false;
    for (std::size_t i = 0; i < flat.size(); i += 2) {
      // Canonical blobs are sorted by address with no duplicates; anything
      // else is corruption (a duplicate would silently merge two entries).
      if (i > 0 && flat[i] <= flat[i - 2]) return false;
      // The all-ones address is AddrMap's empty-slot sentinel, which no
      // simulated line can be; cached blobs are outside input, so reject it.
      if (flat[i] == ~Addr{0}) return false;
      by_line[flat[i]] = flat[i + 1];
    }
    return true;
  }

  [[nodiscard]] bool done() const { return rest_.empty(); }

 private:
  std::string_view rest_;
};

/// Table visitor parsing each field of the sections up to `last`; fields
/// of absent sections keep their Stats{} defaults.
class Parser {
 public:
  Parser(Reader& r, int last) : r_(r), last_(last) {}

  template <typename T>
  void operator()(const FieldInfo& f, T& v) {
    const int section = section_index(f);
    if (!ok_ || section > last_) return;
    if constexpr (std::is_same_v<T, bool>) {
      // 0/1; an opt-in section's flag must be 1 in the blob's last section
      // (its header is only written when that section is present).
      std::uint64_t flag = 0;
      ok_ = r_.read(f.key, flag) && flag <= 1 &&
            (section == 0 || section < last_ || flag == 1);
      v = flag == 1;
      if (section != 0) on_ = v;
    } else if (on_) {
      ok_ = r_.read(f.key, v);
    }
  }

  [[nodiscard]] bool ok() const { return ok_; }

 private:
  Reader& r_;
  int last_;
  bool on_ = true;
  bool ok_ = true;
};

}  // namespace

std::string serialize_stats(const Stats& s) {
  std::string out;
  out.reserve(2048);
  const int last = last_section(s);
  out += kHeader;
  out += static_cast<char>(kFirstVersion + last);
  out += '\n';
  for_each_field(s, Writer(out, last));
  return out;
}

bool deserialize_stats(std::string_view blob, Stats& out) {
  out = Stats{};
  Reader r(blob);
  char version = 0;
  if (!r.literal(kHeader) ||
      !r.one_of(kFirstVersion, kFirstVersion + 2, version) ||
      !r.literal("\n")) {
    return false;
  }
  Parser parser(r, version - kFirstVersion);
  for_each_field(out, parser);
  return parser.ok() && r.done() &&
         // Stride/shape checks (prov/collector.hpp layout constants); they
         // hold trivially for the empty vectors of an absent section.
         out.prov_site_table.size() == out.prov_site_names.size() * 11 &&
         out.prov_hot_lines.size() % 4 == 0 && out.prov_pairs.size() % 4 == 0 &&
         // The three per-core cm vectors must agree on the core count.
         out.cm_wasted_by_core.size() == out.cm_max_consec_aborts.size() &&
         out.cm_first_commit_cycle.size() == out.cm_max_consec_aborts.size();
}

}  // namespace asfsim
