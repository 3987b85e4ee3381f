// lint fixture: MUST flag global-alloc-in-tx (one site).
//
// Coroutine scope is decided per function or lambda body: a body is a
// coroutine when co_await/co_return/co_yield appears at its own level.
// The transaction body passed to run_tx is a coroutine lambda, so its
// global allocation is flagged. The setup lambda holds no co_* keyword: it
// runs at host time and may allocate globally and poke freely.
#include "workloads/workload.hpp"

namespace asfsim {

Task<void> lambda_worker(GuestCtx& c, Addr head) {
  co_await c.run_tx([&]() -> Task<void> {
    const Addr node = c.galloc().alloc(24, 8);
    co_await c.store_u64(head, node);
  });
}

void lambda_setup(Machine& m, Addr* out) {
  const auto init = [&] {
    *out = m.galloc().alloc(64, 8);
    m.poke(*out, 8, 0);
  };
  init();
}

}  // namespace asfsim
