#include "runner/job_spec.hpp"

#include <cstdio>
#include <type_traits>

namespace asfsim::runner {

namespace {

/// Table visitor appending one `<path> <value>` line per results-role leaf
/// field; nested records extend the dotted path ("sim.l1.ways").
class Canonical {
 public:
  explicit Canonical(std::string& out) : out_(out) {}

  template <typename T>
  void operator()(const FieldInfo& f, const T& v) {
    if (f.role == FieldRole::kHostOnly) return;
    const std::size_t outer = path_.size();
    path_ += f.key;
    if constexpr (Tabled<T>) {
      path_ += '.';
      for_each_field(v, *this);
    } else {
      char buf[32];
      if constexpr (std::is_floating_point_v<T>) {
        // %a is exact (no rounding on round trip) and independent of print
        // precision, so double-valued knobs cannot alias across specs.
        std::snprintf(buf, sizeof(buf), " %a\n", v);
      } else {
        std::snprintf(buf, sizeof(buf), " %llu\n",
                      static_cast<unsigned long long>(v));
      }
      out_ += path_;
      out_ += buf;
    }
    path_.resize(outer);
  }

 private:
  std::string& out_;
  std::string path_;
};

}  // namespace

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

JobSpec make_job_spec(const std::string& workload,
                      const ExperimentConfig& cfg) {
  JobSpec spec;
  spec.workload = workload;
  spec.config = cfg;
  // Mirror run_experiment: the effective sim seed is the params seed.
  spec.config.sim.seed = cfg.params.seed;

  std::string& s = spec.canonical;
  s.reserve(2048);
  s += "asfsim-jobspec v6\n";
  s += "workload " + workload + "\n";
  // The per-line detectors run every nsub as 1 (the Machine's Detector
  // applies the same rule), so hash the count the simulation runs with.
  ExperimentConfig hashed = cfg;
  hashed.nsub = effective_nsub(cfg.detector, cfg.nsub);
  for_each_field(hashed, Canonical(s));

  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(spec.canonical)));
  spec.hash_hex = buf;
  return spec;
}

}  // namespace asfsim::runner
