// lint fixture: MUST pass — every determinism-pass violation below carries
// an inline suppression (both placement forms).
#include <chrono>
#include <cstdint>
#include <unordered_map>

namespace asfsim {

struct State {
  // Stand-alone directive suppresses the next line.
  // asfsim-lint: allow(unordered-iteration)
  std::unordered_map<std::uint64_t, std::uint64_t> cells;
};

std::uint64_t guarded(const State& st) {
  // Trailing same-line suppression.
  const auto t0 = std::chrono::steady_clock::now();  // asfsim-lint: allow(nondeterministic-source)
  std::uint64_t sum = 0;
  for (const auto& [line, v] : st.cells) sum += line ^ v;
  return sum + static_cast<std::uint64_t>(t0.time_since_epoch().count());
}

}  // namespace asfsim
