// Component microbenchmarks (google-benchmark): host-side cost of the
// simulator's hot paths. These measure the SIMULATOR, not the simulated
// machine — useful when hacking on the library itself.
#include <benchmark/benchmark.h>

#include "core/classifier.hpp"
#include "core/detector.hpp"
#include "guest/garray.hpp"
#include "guest/grbtree.hpp"
#include "guest/machine.hpp"
#include "harness/experiment.hpp"
#include "mem/backing_store.hpp"
#include "mem/cache.hpp"
#include "mem/coherence.hpp"
#include "mem/gallocator.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"

namespace asfsim {
namespace {

void BM_TagArrayLookup(benchmark::State& state) {
  SimConfig cfg;
  TagArray l1(cfg.l1);
  std::vector<Addr> lines;
  Rng rng(7);
  for (int i = 0; i < 512; ++i) {
    const Addr line = rng.below(1 << 22) << kLineShift;
    if (const auto v = l1.find_victim(line); v != TagArray::kNoSlot) {
      l1.fill(v, line, Moesi::kShared);
    }
    lines.push_back(line);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(l1.find(lines[i++ & 511]));
  }
}
BENCHMARK(BM_TagArrayLookup);

// One private L2/L3 access at Table II L3 geometry (2 MB, 16-way) over a
// working set four times the cache: mostly misses that evict the tail.
void BM_RecencyTagsLookupOrFill(benchmark::State& state) {
  SimConfig cfg;
  RecencyTags l3(cfg.l3);
  const std::size_t n = 4 * cfg.l3.size_bytes / kLineBytes;
  std::vector<Addr> lines(n);
  Rng rng(7);
  for (Addr& line : lines) line = rng.below(Addr{1} << 28) << kLineShift;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(l3.lookup_or_fill(lines[i]));
    if (++i == n) i = 0;
  }
}
BENCHMARK(BM_RecencyTagsLookupOrFill);

void BM_SubBlockProbeCheck(benchmark::State& state) {
  const Detector det(DetectorKind::kSubBlock,
                     static_cast<std::uint32_t>(state.range(0)));
  SpecState meta;
  meta.read_bytes = byte_mask(0, 8) | byte_mask(24, 8);
  meta.write_bytes = byte_mask(40, 8);
  meta.bits.spec = 0xf;
  meta.bits.wr = 0x4;
  const ByteMask probe = byte_mask(16, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.check_probe(meta, probe, true));
  }
}
BENCHMARK(BM_SubBlockProbeCheck)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_ClassifyConflict(benchmark::State& state) {
  SpecState meta;
  meta.read_bytes = byte_mask(0, 8);
  meta.write_bytes = byte_mask(32, 4);
  const ByteMask probe = byte_mask(8, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(classify_conflict(meta, probe, true));
  }
}
BENCHMARK(BM_ClassifyConflict);

void BM_SimulatedTxThroughput(benchmark::State& state) {
  // Whole-stack cost: simulated transactions per host-second on the counter
  // microworkload (8 cores, sub-block detector).
  for (auto _ : state) {
    ExperimentConfig cfg;
    cfg.detector = DetectorKind::kSubBlock;
    cfg.params.scale = 0.2;
    const auto r = run_experiment("counter", cfg);
    benchmark::DoNotOptimize(r.stats.tx_commits);
    state.counters["sim_tx"] += static_cast<double>(r.stats.tx_attempts);
    state.counters["sim_cycles"] += static_cast<double>(r.stats.total_cycles);
  }
}
BENCHMARK(BM_SimulatedTxThroughput)->Unit(benchmark::kMillisecond);

// One transaction of k speculative accesses through MemorySystem::access
// (one 8-byte access per line, reads and writes alternating), then its
// commit (clear_spec). After the first iteration every line is resident,
// so this times the speculative bookkeeping: recording k entries in the L1
// ways and clearing them again.
void BM_SpecRecordAndClear(benchmark::State& state) {
  struct AlwaysInTx final : ITxControl {
    bool in_tx(CoreId) const override { return true; }
    void doom(CoreId, const ConflictRecord&) override {}
  };
  SimConfig cfg;
  cfg.ncores = 2;
  Kernel kernel(cfg.ncores);
  Stats stats;
  MemorySystem mem(kernel, cfg, stats, Detector(DetectorKind::kSubBlock, 4));
  AlwaysInTx tx;
  mem.set_tx_control(&tx);
  const auto k = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < k; ++i) {
      benchmark::DoNotOptimize(
          mem.access(0, 0x100000 + Addr{i} * kLineBytes, 8, (i & 1) != 0,
                     true));
    }
    mem.clear_spec(0, /*discard_written_lines=*/false);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_SpecRecordAndClear)->Arg(4)->Arg(64);

// One BackingStore write plus read, the shape of Machine::poke/peek in a
// workload set-up. Arg 0: the same resident page every time. Arg 1: a
// strided walk over records placed like oltp's, record i in core i % 4's
// per-core 4 KB arena, so consecutive accesses land on different pages.
void BM_BackingStoreReadWrite(benchmark::State& state) {
  BackingStore bs;
  std::vector<Addr> addrs;
  if (state.range(0) == 0) {
    const Addr page = 0x10000;
    for (Addr off = 0; off < BackingStore::kPageBytes; off += 64) {
      addrs.push_back(page + off);
    }
  } else {
    GAllocator ga;
    for (CoreId i = 0; i < 4096; ++i) addrs.push_back(ga.alloc_local(i % 4, 64));
  }
  for (const Addr a : addrs) bs.write(a, 8, a);
  std::size_t i = 0;
  for (auto _ : state) {
    const Addr a = addrs[i++ % addrs.size()];
    bs.write(a + 8, 8, a);
    benchmark::DoNotOptimize(bs.read(a, 8));
  }
}
BENCHMARK(BM_BackingStoreReadWrite)->Arg(0)->Arg(1);

void BM_GuestRbTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    SimConfig cfg;
    cfg.ncores = 1;
    Machine m(cfg, DetectorKind::kBaseline);
    GRBTree tree = GRBTree::create(m);
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
      tree.host_insert(m, rng.next_u64() % 4096, i);
    }
    benchmark::DoNotOptimize(tree.host_size(m));
  }
}
BENCHMARK(BM_GuestRbTreeInsert)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace asfsim

BENCHMARK_MAIN();
