// custom_workload — how to plug YOUR workload into the experiment harness.
//
// Implements the Workload interface for a small producer/consumer pipeline
// (shared queue + per-stage statistics), then runs it under every conflict
// detector via the same code path the paper benchmarks use. The Workload
// interface gives you setup (build guest data, spawn guest threads) and
// validate (check output invariants after the run).
//
//   $ ./custom_workload [--scale f] [--threads n] [--seed n]
#include <cstdio>
#include <memory>

#include "guest/garray.hpp"
#include "guest/glist.hpp"
#include "guest/machine.hpp"
#include "harness/args.hpp"
#include "workloads/workload.hpp"

using namespace asfsim;

namespace {

class PipelineWorkload final : public Workload {
 public:
  const char* name() const override { return "pipeline"; }
  const char* description() const override {
    return "producer/consumer pipeline (custom-workload example)";
  }

  void setup(Machine& m, const WorkloadParams& p) override {
    nitems_ = p.scaled(200);
    threads_ = p.threads;
    queue_ = GQueue::create(m);
    stage_stats_ = GArray64::alloc(m.galloc(), threads_);
    for (std::uint32_t t = 0; t < threads_; ++t) stage_stats_.poke(m, t, 0);
    done_ = m.galloc().alloc(64, 64);
    m.poke(done_, 8, 0);

    // Even cores produce, odd cores consume.
    for (CoreId t = 0; t < threads_; ++t) {
      if (t % 2 == 0) {
        m.spawn(t, producer(m.ctx(t), this, nitems_ / (threads_ / 2)));
      } else {
        m.spawn(t, consumer(m.ctx(t), this));
      }
    }
    produced_ = nitems_ / (threads_ / 2) * (threads_ / 2);
  }

  std::string validate(Machine& m) override {
    if (queue_.host_size(m) != 0) return "items left in the queue";
    std::uint64_t consumed = 0;
    for (std::uint32_t t = 0; t < threads_; ++t) {
      consumed += stage_stats_.peek(m, t);
    }
    if (consumed != produced_) {
      return "consumed " + std::to_string(consumed) + " != produced " +
             std::to_string(produced_);
    }
    return {};
  }

 private:
  static Task<void> producer(GuestCtx& c, PipelineWorkload* w, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      co_await c.run_tx([&]() -> Task<void> {
        co_await w->queue_.push(c, c.core(), i);
      });
      co_await c.work(30);
    }
    // Signal completion: one producer-done tick per producer.
    co_await c.run_tx([&]() -> Task<void> {
      const std::uint64_t d = co_await c.load_u64(w->done_);
      co_await c.store_u64(w->done_, d + 1);
    });
  }

  static Task<void> consumer(GuestCtx& c, PipelineWorkload* w) {
    const std::uint64_t producers = w->threads_ / 2;
    for (;;) {
      bool got = false;
      std::uint64_t key = 0;
      co_await c.run_tx([&]() -> Task<void> {
        got = co_await w->queue_.pop(c, &key, nullptr);
      });
      if (got) {
        co_await c.work(40);  // "process" the item
        co_await c.run_tx([&]() -> Task<void> {
          const std::uint64_t s = co_await w->stage_stats_.get(c, c.core());
          co_await w->stage_stats_.set(c, c.core(), s + 1);
        });
        continue;
      }
      // Empty: exit only after every producer announced completion.
      const std::uint64_t d = co_await c.load_u64(w->done_);
      if (d == producers) co_return;
      co_await c.wait(100);
    }
  }

  GQueue queue_;
  GArray64 stage_stats_;
  Addr done_ = 0;
  std::uint64_t nitems_ = 0, produced_ = 0;
  std::uint32_t threads_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opts = parse_cli(argc, argv, {.groups = kCliSize});
  std::printf("custom_workload: producer/consumer pipeline under every "
              "detector\n\n");
  std::printf("%-22s %9s %9s %9s %12s %8s\n", "detector", "commits",
              "conflicts", "false", "cycles", "valid");

  for (const auto& [label, kind, nsub] :
       {std::tuple{"baseline ASF", DetectorKind::kBaseline, 1u},
        std::tuple{"sub-block (4)", DetectorKind::kSubBlock, 4u},
        std::tuple{"sub-block (16)", DetectorKind::kSubBlock, 16u},
        std::tuple{"war-only (prior art)", DetectorKind::kWarOnly, 1u},
        std::tuple{"perfect", DetectorKind::kPerfect, 1u}}) {
    SimConfig sim;
    sim.ncores = opts.threads;
    sim.seed = opts.seed;
    Machine m(sim, kind, nsub);
    PipelineWorkload wl;
    WorkloadParams p;
    p.threads = opts.threads;
    p.seed = opts.seed;
    p.scale = opts.scale;
    wl.setup(m, p);
    m.run();
    const std::string err = wl.validate(m);
    const Stats& s = m.stats();
    std::printf("%-22s %9llu %9llu %9llu %12llu %8s\n", label,
                (unsigned long long)s.tx_commits,
                (unsigned long long)s.conflicts_total,
                (unsigned long long)s.conflicts_false,
                (unsigned long long)s.total_cycles,
                err.empty() ? "ok" : err.c_str());
    if (!err.empty()) return 1;
  }
  return 0;
}
