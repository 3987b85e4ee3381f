#include "runner/runner.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/detector.hpp"
#include "runner/version.hpp"

namespace asfsim::runner {

namespace {

unsigned resolve_jobs(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

bool resolve_progress(RunnerOptions::Progress p) {
  return p == RunnerOptions::Progress::kAuto &&
         ::isatty(::fileno(stderr)) == 1;
}

std::string detector_label(const ExperimentConfig& cfg) {
  std::string label = to_string(cfg.detector);
  if (tracks_subblocks(cfg.detector)) {
    label += "/" + std::to_string(cfg.nsub);
  }
  return label;
}

/// Minimal JSON string escape (quotes, backslashes, control chars).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

Runner::Runner(RunnerOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_dir.empty() ? ResultCache::default_dir()
                                     : opts_.cache_dir),
      jobs_(resolve_jobs(opts_.jobs)),
      pool_(std::make_unique<ThreadPool>(jobs_)),
      progress_enabled_(resolve_progress(opts_.progress)),
      start_(std::chrono::steady_clock::now()) {}

Runner::~Runner() {
  pool_.reset();  // drain: every submitted job finishes before the manifest
  if (progress_dirty_) std::fputc('\n', stderr);
  write_manifest();
}

std::shared_future<ExperimentResult> Runner::submit(
    const std::string& workload, const ExperimentConfig& cfg) {
  std::string key = job_key(workload, cfg);

  std::lock_guard<std::mutex> lk(mu_);
  if (auto it = inflight_.find(key); it != inflight_.end()) {
    ++totals_.deduped;
    return it->second;
  }
  const std::size_t entry_index = entries_.size();
  ManifestEntry entry;  // hash_hex: filled in by the job's worker
  entry.workload = workload;
  entry.detector = detector_label(cfg);
  entry.seed = cfg.params.seed;
  entry.policy = to_string(cfg.sim.cm.policy);
  if (cfg.sim.cm.policy == CmPolicyKind::kSerialize) {
    entry.cm_max_retries = cfg.sim.cm.max_retries;
  }
  entries_.push_back(std::move(entry));
  ++totals_.submitted;

  // The spec text and its hash are built on the worker, so a warm sweep's
  // submitting thread only builds keys while the pool serves cache hits.
  auto task = std::make_shared<std::packaged_task<ExperimentResult()>>(
      [this, workload, cfg, entry_index] {
        const JobSpec spec = make_job_spec(workload, cfg);
        {
          std::lock_guard<std::mutex> lk(mu_);
          entries_[entry_index].hash_hex = spec.hash_hex;
        }
        return run_one(spec, entry_index);
      });
  std::shared_future<ExperimentResult> fut = task->get_future().share();
  inflight_.emplace(std::move(key), fut);
  pool_->post([task] { (*task)(); });
  return fut;
}

ExperimentResult Runner::get(const std::string& workload,
                             const ExperimentConfig& cfg) {
  try {
    return submit(workload, cfg).get();
  } catch (const JobError&) {
    throw;  // already carries its identity (shared future, second get())
  } catch (const std::exception& e) {
    throw JobError(workload, detector_label(cfg), cfg.params.seed, e.what());
  }
}

ExperimentResult Runner::run_one(const JobSpec& spec,
                                 std::size_t entry_index) {
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed_ms = [&t0] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  // A traced job must actually execute — a cached result carries no event
  // timeline — so tracing skips the cache *load* (results are still stored).
  const bool tracing = !opts_.trace_dir.empty();
  if (opts_.use_cache && !tracing) {
    if (auto cached = cache_.load(spec)) {
      job_finished(entry_index, "cache", elapsed_ms());
      return *std::move(cached);
    }
  }
  TraceOptions trace;
  if (tracing) {
    trace.format = opts_.trace_format;
    trace.path = opts_.trace_dir + "/" + spec.workload + "-" + spec.hash_hex +
                 trace_file_extension(trace.format);
  }
  try {
    ExperimentResult result = run_experiment(spec.workload, spec.config, trace);
    if (opts_.use_cache) cache_.store(spec, result);
    job_finished(entry_index, "executed", elapsed_ms(), trace.path, {},
                 result.has_fault_counters ? &result.fault_counters : nullptr);
    return result;
  } catch (const std::exception& e) {
    job_finished(entry_index, "failed", elapsed_ms(), {}, e.what());
    throw;  // surfaces at future.get() in the submitting thread
  } catch (...) {
    job_finished(entry_index, "failed", elapsed_ms(), {}, "unknown exception");
    throw;
  }
}

void Runner::job_finished(std::size_t entry_index, const char* source,
                          double wall_ms, std::string trace_path,
                          std::string error,
                          const FaultCounters* fault_counters) {
  std::lock_guard<std::mutex> lk(mu_);
  entries_[entry_index].source = source;
  entries_[entry_index].wall_ms = wall_ms;
  entries_[entry_index].trace = std::move(trace_path);
  entries_[entry_index].error = std::move(error);
  if (fault_counters != nullptr) {
    entries_[entry_index].fault_counters = *fault_counters;
    entries_[entry_index].has_fault_counters = true;
  }
  if (source[0] == 'e') ++totals_.executed;
  if (source[0] == 'c') ++totals_.cache_hits;
  ++completed_;
  if (progress_enabled_) print_progress_locked();
}

void Runner::print_progress_locked() {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const std::uint64_t remaining = totals_.submitted - completed_;
  char eta[32] = "";
  if (remaining > 0 && completed_ > 0) {
    std::snprintf(eta, sizeof(eta), ", ETA %.0fs",
                  elapsed / static_cast<double>(completed_) *
                      static_cast<double>(remaining));
  }
  std::fprintf(stderr,
               "\r[runner] %llu/%llu jobs (%llu run, %llu cached%s)   ",
               static_cast<unsigned long long>(completed_),
               static_cast<unsigned long long>(totals_.submitted),
               static_cast<unsigned long long>(totals_.executed),
               static_cast<unsigned long long>(totals_.cache_hits), eta);
  std::fflush(stderr);
  progress_dirty_ = true;
}

RunnerTotals Runner::totals() const {
  std::lock_guard<std::mutex> lk(mu_);
  return totals_;
}

void Runner::write_manifest() {
  std::string path = opts_.manifest_path;
  if (const char* env = std::getenv("ASFSIM_RUN_MANIFEST");
      env != nullptr && *env != '\0') {
    path = env;
  }
  if (path == "-") return;
  if (path.empty()) path = cache_.dir() + "/last_run_manifest.json";
  if (entries_.empty()) return;

  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return;

  const double total_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_)
          .count();
  char buf[160];
  out << "{\n";
  out << "  \"code_stamp\": \"" << code_version_stamp() << "\",\n";
  out << "  \"jobs\": " << jobs_ << ",\n";
  out << "  \"cache\": " << (opts_.use_cache ? "true" : "false") << ",\n";
  std::snprintf(buf, sizeof(buf), "  \"total_wall_ms\": %.3f,\n", total_ms);
  out << buf;
  out << "  \"submitted\": " << totals_.submitted << ",\n";
  out << "  \"deduped\": " << totals_.deduped << ",\n";
  out << "  \"executed\": " << totals_.executed << ",\n";
  out << "  \"cache_hits\": " << totals_.cache_hits << ",\n";
  out << "  \"entries\": [\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const ManifestEntry& e = entries_[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"hash\": \"%s\", \"workload\": \"%s\", "
                  "\"detector\": \"%s\", \"seed\": %llu, \"source\": \"%s\", "
                  "\"wall_ms\": %.3f",
                  e.hash_hex.c_str(), json_escape(e.workload).c_str(),
                  json_escape(e.detector).c_str(),
                  static_cast<unsigned long long>(e.seed), e.source,
                  e.wall_ms);
    out << buf;
    out << ", \"policy\": \"" << e.policy << "\"";
    if (e.cm_max_retries != 0) {
      out << ", \"cm_max_retries\": " << e.cm_max_retries;
    }
    const bool failed = e.source[0] == 'f';
    out << ", \"status\": \"" << (failed ? "failed" : "ok") << "\"";
    if (failed && !e.error.empty()) {
      // Multi-line errors (the livelock watchdog embeds its diagnostic
      // dump in what()) split into a one-line "error" plus a "diagnostic"
      // array, so `jq .error` stays a headline and the dump stays readable.
      const std::size_t nl = e.error.find('\n');
      out << ", \"error\": \"" << json_escape(e.error.substr(0, nl)) << "\"";
      if (nl != std::string::npos) {
        out << ", \"diagnostic\": [";
        std::size_t pos = nl + 1;
        bool first = true;
        while (pos <= e.error.size()) {
          const std::size_t next = e.error.find('\n', pos);
          const std::size_t end =
              next == std::string::npos ? e.error.size() : next;
          const std::string line = e.error.substr(pos, end - pos);
          if (!line.empty()) {
            out << (first ? "" : ", ") << "\"" << json_escape(line) << "\"";
            first = false;
          }
          if (next == std::string::npos) break;
          pos = next + 1;
        }
        out << "]";
      }
    }
    if (e.has_fault_counters) {
      out << ", \"fault_counters\": {";
      const char* sep = "";
      for_each_field(e.fault_counters,
                     [&](const FieldInfo& f, std::uint64_t v) {
                       out << sep << '"' << f.key << "\": " << v;
                       sep = ", ";
                     });
      out << "}";
    }
    if (!e.trace.empty()) {
      out << ", \"trace\": \"" << json_escape(e.trace) << "\"";
    }
    out << (i + 1 < entries_.size() ? "},\n" : "}\n");
  }
  out << "  ]\n}\n";
}

}  // namespace asfsim::runner
