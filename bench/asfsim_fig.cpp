// asfsim_fig — regenerates one paper table, figure or ablation by name.
//
//   $ asfsim_fig fig1_false_conflict_rate --scale 0.25 --csv out/
//   $ asfsim_fig --list
//
// Takes the common flags of src/harness/args.hpp. DESIGN.md §4 indexes the
// figures; EXPERIMENTS.md records the paper-vs-measured comparison.
#include <iostream>

#include "harness/figures.hpp"

int main(int argc, char** argv) {
  return asfsim::figures::cli_main(argc, argv, std::cout);
}
