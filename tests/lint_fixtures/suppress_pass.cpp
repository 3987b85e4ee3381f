// lint fixture: MUST pass — every violation below carries a suppression.
#include "guest/machine.hpp"

namespace asfsim {

Task<void> suppressed(GuestCtx& c, Addr a) {
  // Trailing same-line suppression.
  if (co_await c.load_u64(a) != 0) {  // asfsim-lint: allow(coawait-in-condition)
    co_await c.store_u64(a, 1);
  }
  // Stand-alone directive suppresses the next line.
  // asfsim-lint: allow(coawait-in-condition)
  while (co_await c.load_u64(a) == 0) {
    co_await c.store_u64(a, 2);
  }
}

}  // namespace asfsim
