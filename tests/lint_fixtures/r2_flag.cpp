// R2 fixture: MUST fail to compile under -Werror=unused-result (two sites).
#include "guest/machine.hpp"

namespace asfsim {

Task<void> step(GuestCtx& c, Addr a) { co_await c.store_u64(a, 1); }

Task<void> dropper(GuestCtx& c, Addr a) {
  // Bare call statement: the Task is constructed and destroyed without ever
  // running its body — this "store" never happens.
  step(c, a);
  const std::uint64_t v = co_await c.load_u64(a);
  // Same bug under a branch.
  if (v == 0) step(c, a + 8);
  co_await c.store_u64(a, v);
}

}  // namespace asfsim
