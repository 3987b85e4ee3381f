// graph_kernel — an ssca2-style graph-construction kernel on the public
// API: tiny transactions incrementing unpadded 32-bit per-node degree
// counters. With 16 nodes per cache line, almost every conflict the
// baseline detector reports is false — the paper's worst-case benchmark —
// and the sub-block sweep shows the false rate collapsing.
//
//   $ ./graph_kernel [--scale f] [--threads n] [--seed n]
#include <cstdio>

#include "guest/garray.hpp"
#include "guest/machine.hpp"
#include "harness/args.hpp"

using namespace asfsim;

namespace {

Task<void> edge_worker(GuestCtx& ctx, GArray32 degree, std::uint64_t nnodes,
                       int nedges) {
  for (int e = 0; e < nedges; ++e) {
    const std::uint64_t u = ctx.rng().below(nnodes);
    std::uint64_t v = ctx.rng().below(nnodes);
    if (v == u) v = (v + 1) % nnodes;
    co_await ctx.run_tx([&]() -> Task<void> {
      const std::uint64_t du = co_await degree.get(ctx, u);
      co_await degree.set(ctx, u, du + 1);
      const std::uint64_t dv = co_await degree.get(ctx, v);
      co_await degree.set(ctx, v, dv + 1);
    });
    co_await ctx.work(4);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opts = parse_cli(argc, argv, {.groups = kCliSize});
  const std::uint64_t nnodes = 256;
  const auto nedges = static_cast<int>(150 * opts.scale + 1);

  std::printf("graph_kernel: %u workers x %d edges over %llu nodes "
              "(16 degree counters per cache line)\n\n",
              opts.threads, nedges, (unsigned long long)nnodes);
  std::printf("%-16s %9s %9s %11s %12s\n", "detector", "conflicts", "false",
              "false rate", "cycles");

  for (const std::uint32_t nsub : {1u, 2u, 4u, 8u, 16u}) {
    SimConfig sim;
    sim.ncores = opts.threads;
    sim.seed = opts.seed;
    const DetectorKind kind =
        nsub == 1 ? DetectorKind::kBaseline : DetectorKind::kSubBlock;
    Machine m(sim, kind, nsub);

    GArray32 degree = GArray32::alloc(m.galloc(), nnodes);
    for (std::uint64_t n = 0; n < nnodes; ++n) degree.poke(m, n, 0);
    for (CoreId c = 0; c < m.config().ncores; ++c) {
      m.spawn(c, edge_worker(m.ctx(c), degree, nnodes, nedges));
    }
    m.run();

    std::uint64_t total = 0;
    for (std::uint64_t n = 0; n < nnodes; ++n) total += degree.peek(m, n);
    const auto expect =
        2ull * static_cast<std::uint64_t>(nedges) * m.config().ncores;
    if (total != expect) {
      std::fprintf(stderr, "BUG: degree sum %llu != %llu\n",
                   (unsigned long long)total, (unsigned long long)expect);
      return 1;
    }
    const Stats& s = m.stats();
    char label[32];
    std::snprintf(label, sizeof(label), "%s%s",
                  nsub == 1 ? "baseline" : "sub-block ",
                  nsub == 1 ? "" : std::to_string(nsub).c_str());
    std::printf("%-16s %9llu %9llu %10.1f%% %12llu\n", label,
                (unsigned long long)s.conflicts_total,
                (unsigned long long)s.conflicts_false,
                100.0 * s.false_conflict_rate(),
                (unsigned long long)s.total_cycles);
  }
  std::printf("\nat 16 sub-blocks (4-byte granularity) only true same-node "
              "collisions remain.\n");
  return 0;
}
