// Workload interface + registry.
//
// A workload builds its guest data in simulated memory, spawns one guest
// thread per core, and self-validates its output after the run — detectors
// must never change results, only performance (DESIGN.md §5).
//
// Registration is explicit (registry.cpp) rather than via static
// initializers, which a static library would silently drop.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "guest/machine.hpp"
#include "oltp/oltp_config.hpp"

namespace asfsim {

struct WorkloadParams {
  std::uint32_t threads = 8;  // guest threads (= cores used)
  std::uint64_t seed = 1;
  double scale = 1.0;  // input-size multiplier (1.0 = default bench size)
  OltpConfig oltp;     // knobs for the oltp workload family (ignored by others)

  [[nodiscard]] std::uint64_t scaled(std::uint64_t base) const {
    const auto v = static_cast<std::uint64_t>(static_cast<double>(base) * scale);
    return v < 1 ? 1 : v;
  }
};

template <>
struct FieldTable<WorkloadParams> {
  static constexpr auto fields = std::tuple{
      field(&WorkloadParams::threads, {"threads"}),
      field(&WorkloadParams::seed, {"seed"}),
      field(&WorkloadParams::scale, {"scale"}),
      field(&WorkloadParams::oltp, {"oltp"}),
  };
};
static_assert(table_complete<WorkloadParams>(),
              "every WorkloadParams member needs an entry");

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// One-line description (paper Table III).
  [[nodiscard]] virtual const char* description() const = 0;

  /// Build guest data and spawn guest threads. Called once per Machine.
  virtual void setup(Machine& m, const WorkloadParams& p) = 0;
  /// After Machine::run(): check output invariants. Returns an empty string
  /// on success, otherwise a failure description.
  [[nodiscard]] virtual std::string validate(Machine& m) = 0;
};

using WorkloadFactory = std::unique_ptr<Workload> (*)();

struct WorkloadInfo {
  const char* name;
  WorkloadFactory make;
};

/// All registered workloads, in presentation order (paper benchmarks first).
[[nodiscard]] const std::vector<WorkloadInfo>& workload_registry();

/// The ten paper-evaluated benchmarks (Table III order).
[[nodiscard]] const std::vector<std::string>& paper_benchmarks();

/// Instantiate by name; throws std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

// Per-workload factories (one per workloads/*.cpp).
std::unique_ptr<Workload> make_counter();
std::unique_ptr<Workload> make_bank();
std::unique_ptr<Workload> make_kmeans();
std::unique_ptr<Workload> make_vacation();
std::unique_ptr<Workload> make_genome();
std::unique_ptr<Workload> make_intruder();
std::unique_ptr<Workload> make_ssca2();
std::unique_ptr<Workload> make_labyrinth();
std::unique_ptr<Workload> make_scalparc();
std::unique_ptr<Workload> make_apriori();
std::unique_ptr<Workload> make_utilitymine();
std::unique_ptr<Workload> make_fluidanimate();
std::unique_ptr<Workload> make_yada();
std::unique_ptr<Workload> make_bayes();
std::unique_ptr<Workload> make_livelock();
std::unique_ptr<Workload> make_oltp();  // oltp/oltp.cpp

}  // namespace asfsim
