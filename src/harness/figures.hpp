// The paper's tables, figures and the ablations, one function each, looked
// up by name. The asfsim_fig driver (bench/asfsim_fig.cpp) runs them:
//
//   $ build/bench/asfsim_fig fig1_false_conflict_rate --scale 0.25
//   $ build/bench/asfsim_fig --list
//
// Every function prints the paper's rows/series to `os`, optionally mirrors
// them as CSV into opts.csv_dir, and returns 0 on success (non-zero when a
// sanity expectation fails badly enough that the figure is meaningless,
// e.g. a workload failed validation). DESIGN.md §4 indexes them.
#pragma once

#include <iostream>
#include <span>
#include <string_view>

#include "harness/args.hpp"

namespace asfsim::figures {

struct Figure {
  const char* name;
  int (*run)(const CliOptions& opts, std::ostream& os);
};

/// Every figure, in the order `asfsim_fig --list` prints them.
[[nodiscard]] std::span<const Figure> registry();

/// The figure called `name`, or null.
[[nodiscard]] const Figure* find(std::string_view name);

/// The asfsim_fig command line: `<name> [common flags]` runs one figure
/// into `os`, `--list` prints every name. Returns the exit status: the
/// figure's own, 1 when a job throws (one line on stderr), 2 on usage
/// errors.
int cli_main(int argc, char** argv, std::ostream& os);

}  // namespace asfsim::figures
