// JobSpec: the canonical identity of one simulation job.
//
// A job is one (workload × detector × SimConfig × WorkloadParams) run — the
// unit run_experiment() executes. The runner addresses jobs by content: the
// canonical serialization below covers every field that can influence the
// simulation outcome, in a fixed order and with exact (hex-float) encoding
// for the floating-point knobs, so
//
//   same spec text  <=>  byte-identical simulation results
//
// holds for the deterministic single-threaded simulator. The FNV-1a hash of
// that text keys the on-disk result cache; the in-process dedup map keys on
// job_key, the same leaves as raw bytes, which is cheaper to build on the
// submitting thread (docs/runner.md documents both keys and the cache's
// invalidation rules).
#pragma once

#include <cstdint>
#include <string>

#include "harness/experiment.hpp"

namespace asfsim::runner {

struct JobSpec {
  std::string workload;
  ExperimentConfig config;
  std::string canonical;  // canonical serialization (see make_job_spec)
  std::string hash_hex;   // 16-hex-digit FNV-1a 64 of `canonical`
};

/// FNV-1a 64-bit over a byte string.
[[nodiscard]] std::uint64_t fnv1a64(const std::string& bytes);

/// `cfg` as the simulation runs it: sim.seed is the params seed (as
/// run_experiment sets it) and nsub is the count the detector tracks
/// (effective_nsub). make_job_spec and job_key both describe this config.
[[nodiscard]] ExperimentConfig effective_config(const ExperimentConfig& cfg);

/// Build the spec: `config` is effective_config(cfg), and `canonical` +
/// `hash_hex` describe it.
[[nodiscard]] JobSpec make_job_spec(const std::string& workload,
                                    const ExperimentConfig& cfg);

/// Exact in-process dedup key: the length-prefixed workload name, then the
/// object bytes of every results-role leaf of effective_config(cfg), in
/// field-table order. Equal keys mean equal canonical text. The converse
/// fails only for NaN knobs of different payloads (one "nan" in the text);
/// such specs run separately and share a cache entry.
[[nodiscard]] std::string job_key(const std::string& workload,
                                  const ExperimentConfig& cfg);

}  // namespace asfsim::runner
