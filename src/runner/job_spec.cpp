#include "runner/job_spec.hpp"

#include <charconv>
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
      out_ += path_;
      char buf[32];
      if constexpr (std::is_floating_point_v<T>) {
        // %a is exact (no rounding on round trip) and independent of print
        // precision, so double-valued knobs cannot alias across specs.
        std::snprintf(buf, sizeof(buf), " %a\n", v);
        out_ += buf;
      } else {
        buf[0] = ' ';
        char* end = std::to_chars(buf + 1, buf + sizeof(buf),
                                  static_cast<unsigned long long>(v))
                        .ptr;
        *end++ = '\n';
        out_.append(buf, end);
      }
    }
    path_.resize(outer);
  }

 private:
  std::string& out_;
  std::string path_;
};

/// Table visitor appending the object bytes of each results-role leaf
/// field. Every leaf is a fixed-size scalar walked in table order, so equal
/// keys mean equal leaves and hence equal canonical text.
class KeyBytes {
 public:
  explicit KeyBytes(std::string& out) : out_(out) {}

  template <typename T>
  void operator()(const FieldInfo& f, const T& v) const {
    if (f.role == FieldRole::kHostOnly) return;
    if constexpr (Tabled<T>) {
      for_each_field(v, *this);
    } else {
      static_assert(std::is_scalar_v<T>);
      out_.append(reinterpret_cast<const char*>(&v), sizeof v);
    }
  }

 private:
  std::string& out_;
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

ExperimentConfig effective_config(const ExperimentConfig& cfg) {
  ExperimentConfig eff = cfg;
  // Mirror run_experiment: the effective sim seed is the params seed.
  eff.sim.seed = cfg.params.seed;
  // The per-line detectors run every nsub as 1 (the Machine's Detector
  // applies the same rule), so a job names the count it runs with.
  eff.nsub = effective_nsub(cfg.detector, cfg.nsub);
  return eff;
}

std::string job_key(const std::string& workload,
                    const ExperimentConfig& cfg) {
  std::string key;
  key.reserve(512);
  const std::size_t name_bytes = workload.size();
  key.append(reinterpret_cast<const char*>(&name_bytes), sizeof name_bytes);
  key += workload;
  const ExperimentConfig eff = effective_config(cfg);
  for_each_field(eff, KeyBytes(key));
  return key;
}

JobSpec make_job_spec(const std::string& workload,
                      const ExperimentConfig& cfg) {
  JobSpec spec;
  spec.workload = workload;
  spec.config = effective_config(cfg);

  std::string& s = spec.canonical;
  s.reserve(2048);
  s += "asfsim-jobspec v6\n";
  s += "workload ";
  s += workload;
  s += '\n';
  for_each_field(spec.config, Canonical(s));

  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(spec.canonical)));
  spec.hash_hex = buf;
  return spec;
}

}  // namespace asfsim::runner
