// R2 fixture: MUST compile under -Werror=unused-result and lint clean.
#include "guest/machine.hpp"

namespace asfsim {

Task<void> step(GuestCtx& c, Addr a) { co_await c.store_u64(a, 1); }

Task<void> consumer(GuestCtx& c, Addr a) {
  // Awaited directly.
  co_await step(c, a);
  // Awaited under a branch.
  const std::uint64_t v = co_await c.load_u64(a);
  if (v == 0) co_await step(c, a + 8);
  co_await c.store_u64(a, v);
}

void host_setup(Machine& m, GuestCtx& c, Addr a) {
  // Stored and handed to the kernel: the task runs when scheduled.
  Task<void> t = step(c, a);
  m.spawn(0, std::move(t));
  // Constructed directly in an argument list.
  m.spawn(0, consumer(c, a));
  // Host containers sharing guest-DS method names are not Task calls.
  std::vector<std::uint64_t> q;
  q.push_back(1);
}

}  // namespace asfsim
