// Pins the safe coroutine shapes for the GCC 12 co_await-in-condition
// miscompile. The full story (failure mode, the transplant-like signature
// that exposed it, the hoisting workaround) lives in
// docs/static_analysis.md §R1, which is also enforced mechanically by
// tools/asfsim_lint (`coawait-in-condition`). These tests exercise the
// hoisted shapes end to end and must keep passing on every toolchain the
// project builds with.
#include <gtest/gtest.h>

#include "guest/machine.hpp"

namespace asfsim {
namespace {

struct Fixture {
  SimConfig cfg;
  Machine m;
  Addr cell;
  Fixture() : cfg(make_cfg()), m(cfg, DetectorKind::kBaseline) {
    cell = m.galloc().alloc(64, 8);
    for (int i = 0; i < 8; ++i) m.poke(cell + 8 * i, 8, 0);
  }
  static SimConfig make_cfg() {
    SimConfig c;
    c.ncores = 1;
    return c;
  }
};

// The transplant shape: nested Task<void> member-style coroutine whose first
// suspend point is reachable through an if/else chain.
Task<void> nested_branchy(GuestCtx& c, Addr base, Addr u, Addr uparent,
                          Addr v) {
  if (uparent == 0) {
    co_await c.store_u64(base, v);
  } else {
    const Addr left = co_await c.load_u64(uparent);  // hoisted (workaround)
    if (left == u) {
      co_await c.store_u64(uparent, v);
    } else {
      co_await c.store_u64(uparent + 8, v);
    }
  }
  if (v != 0) co_await c.store_u64(v, uparent);
}

Task<void> driver(GuestCtx& c, Addr base, int* steps) {
  co_await nested_branchy(c, base, 1, 0, 0);
  ++*steps;
  co_await nested_branchy(c, base, 1, base + 16, 0);
  ++*steps;
  co_await nested_branchy(c, base, 1, base + 16, base + 32);
  ++*steps;
  // Awaited value used in a loop condition via a named local.
  Addr cur = co_await c.load_u64(base + 32);
  int guard = 0;
  while (cur != 0 && guard < 10) {
    cur = co_await c.load_u64(base + 40);
    ++guard;
  }
  ++*steps;
}

TEST(CompilerWorkaround, NestedBranchyCoroutinesComplete) {
  Fixture f;
  int steps = 0;
  f.m.spawn(0, driver(f.m.ctx(0), f.cell, &steps));
  f.m.run(1'000'000);  // throws DeadlockError if the miscompile returns
  EXPECT_EQ(steps, 4);
}

// Deep nesting: value-returning tasks chained through three levels.
Task<std::uint64_t> level3(GuestCtx& c, Addr a) {
  const std::uint64_t v = co_await c.load_u64(a);
  co_return v + 1;
}
Task<std::uint64_t> level2(GuestCtx& c, Addr a) {
  const std::uint64_t v = co_await level3(c, a);
  co_return v * 2;
}
Task<std::uint64_t> level1(GuestCtx& c, Addr a) {
  const std::uint64_t v = co_await level2(c, a);
  co_await c.store_u64(a, v);
  co_return v;
}
Task<void> deep_driver(GuestCtx& c, Addr a, std::uint64_t* out) {
  *out = co_await level1(c, a);
}

TEST(CompilerWorkaround, DeepTaskNestingPropagatesValues) {
  Fixture f;
  f.m.poke(f.cell, 8, 20);
  std::uint64_t out = 0;
  f.m.spawn(0, deep_driver(f.m.ctx(0), f.cell, &out));
  f.m.run(1'000'000);
  EXPECT_EQ(out, 42u);
  EXPECT_EQ(f.m.peek(f.cell, 8), 42u);
}

// Exception propagation (a guest bug's exception) through nested tasks.
struct Boom {};
Task<void> thrower(GuestCtx& c, Addr a) {
  co_await c.load_u64(a);
  throw Boom{};
}
Task<void> catcher(GuestCtx& c, Addr a, bool* caught) {
  try {
    co_await thrower(c, a);
  } catch (const Boom&) {
    *caught = true;
  }
  co_await c.store_u64(a, 7);
}

TEST(CompilerWorkaround, ExceptionsUnwindNestedTasks) {
  Fixture f;
  bool caught = false;
  f.m.spawn(0, catcher(f.m.ctx(0), f.cell, &caught));
  f.m.run(1'000'000);
  EXPECT_TRUE(caught);
  EXPECT_EQ(f.m.peek(f.cell, 8), 7u);
}

}  // namespace
}  // namespace asfsim
