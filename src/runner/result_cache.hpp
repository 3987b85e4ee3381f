// Content-addressed on-disk cache of ExperimentResults.
//
// Layout: <dir>/<code-version-stamp>/<jobspec-hash>.result, one file per
// job. Each file stores the full canonical JobSpec text alongside the
// serialized result; load() verifies the stored spec byte-for-byte against
// the requested one, so an (astronomically unlikely) 64-bit hash collision
// or a hand-edited file degrades to a cache miss, never to wrong results.
// Stores go through a temp file + rename, so concurrent bench processes
// sharing one cache directory race benignly (last writer wins with an
// identical payload). Any parse failure on load is a miss — the offending
// file is quarantined (renamed to <hash>.bad, or removed when even the
// rename fails) so the poisoned entry cannot be consulted again, and the
// result is recomputed and re-stored. `rm -rf <dir>` is always safe.
#pragma once

#include <optional>
#include <string>

#include "runner/job_spec.hpp"

namespace asfsim::runner {

class ResultCache {
 public:
  /// `dir` is the cache root; entries go under <dir>/<stamp>/. The
  /// directory is created lazily on first store.
  explicit ResultCache(std::string dir);

  [[nodiscard]] std::optional<ExperimentResult> load(const JobSpec& spec) const;
  void store(const JobSpec& spec, const ExperimentResult& result) const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Default cache root: $ASFSIM_CACHE_DIR, else build/.asfsim-cache
  /// (relative to the CWD — figures are run from the repo root).
  [[nodiscard]] static std::string default_dir();

 private:
  [[nodiscard]] std::string entry_path(const JobSpec& spec) const;
  /// Move a corrupt entry out of the lookup path (<hash>.result ->
  /// <hash>.bad; removed outright if the rename fails). Keeping the bytes
  /// around makes cache corruption diagnosable after the fact.
  void quarantine(const std::string& path) const;

  std::string dir_;
};

}  // namespace asfsim::runner
