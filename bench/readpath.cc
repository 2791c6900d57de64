// Read fast-path microbenchmark (DESIGN.md §14): 8 reader threads on node 0
// hammer random pages homed on node 1, and we measure real wall-clock
// per-read latency on two paths:
//
//   queue path      Service::ReadPage, a kGetPage task run on node 1's
//                   execution mutex        (enable_optimistic_reads off)
//   optimistic path Service::TryReadPageOptimistic, ReadPage on decline
//
// Reported: p50/p99/p999 per path, optimistic hit ratio, retry rate, and
// the p99 speedup between the paths. ci/check_perf.py gates the hit ratio
// (>= 0.95) and the retry rate (< 0.05); the ratio is reported only, and
// the ledger's opt_read_remote row prices the optimistic read.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "mm/mega_mmap.h"
#include "mm/util/hash.h"

namespace {

using mm::MixU64;

constexpr int kReaders = 8;
constexpr int kWarmupOps = 200;  // untimed: thread-pool and allocator warm-up
constexpr int kOpsPerReader = 5000;
constexpr std::uint64_t kPageBytes = 4096;
constexpr std::uint64_t kPages = 64;  // readers touch the node-1 half

struct PathStats {
  std::vector<double> latencies_ns;
  std::uint64_t hits = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t retries = 0;
};

// One full measurement of a path. `optimistic` selects the per-op call; the
// service is built fresh each time so the two paths see identical state
// (and so the enable_optimistic_reads toggle is exercised for real).
PathStats RunPath(bool optimistic) {
  auto cluster = mm::sim::Cluster::PaperTestbed(2);
  mm::core::ServiceOptions so;
  so.tier_grants = {{mm::sim::TierKind::kDram, mm::MEGABYTES(64)},
                    {mm::sim::TierKind::kNvme, mm::MEGABYTES(256)}};
  so.enable_optimistic_reads = optimistic;
  mm::core::Service svc(cluster.get(), so);

  mm::core::VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = kPageBytes;
  const std::uint64_t elems = kPages * kPageBytes / 8;
  auto meta = svc.RegisterVector("readpath_pages", 8, vo, elems);
  if (!meta.ok()) {
    std::fprintf(stderr, "RegisterVector: %s\n",
                 meta.status().ToString().c_str());
    std::exit(1);
  }
  // Balanced PGAS split over 2 single-rank nodes: the upper half of the
  // pages is homed on node 1, which is what the readers (on node 0) touch —
  // every queue-path read runs a task on node 1.
  svc.SetPgasHint(**meta, {elems, /*nprocs=*/2, /*ranks_per_node=*/1});

  // Materialize the upper half on its home node once, outside the timers.
  mm::sim::SimTime t = 0.0;
  for (std::uint64_t p = kPages / 2; p < kPages; ++p) {
    auto st = svc.ReadPage(**meta, p, /*from_node=*/1, t, &t);
    if (!st.ok()) {
      std::fprintf(stderr, "placement fault: %s\n",
                   st.status().ToString().c_str());
      std::exit(1);
    }
  }

  std::vector<PathStats> per_thread(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      PathStats& mine = per_thread[r];
      mine.latencies_ns.reserve(kOpsPerReader);
      std::uint64_t rng = MixU64(r + 1);
      mm::sim::SimTime now = 1.0;
      for (int op = -kWarmupOps; op < kOpsPerReader; ++op) {
        rng = MixU64(rng);
        const std::uint64_t page = kPages / 2 + rng % (kPages / 2);
        const auto t0 = std::chrono::steady_clock::now();
        if (optimistic) {
          auto fast = svc.TryReadPageOptimistic(**meta, page, /*from_node=*/0,
                                                now, &now);
          if (fast.has_value()) {
            ++mine.hits;
          } else {
            ++mine.fallbacks;
            // Pre-placed read-only pages: the fallback cannot fail here.
            (void)svc.ReadPage(**meta, page, 0, now, &now);
          }
        } else {
          // Same: latency is the measurement, not the (always-ok) status.
          (void)svc.ReadPage(**meta, page, /*from_node=*/0, now, &now);
        }
        const auto t1 = std::chrono::steady_clock::now();
        if (op >= 0) {
          mine.latencies_ns.push_back(
              std::chrono::duration<double, std::nano>(t1 - t0).count());
        }
      }
    });
  }
  for (auto& th : readers) th.join();

  PathStats total;
  for (const PathStats& s : per_thread) {
    total.latencies_ns.insert(total.latencies_ns.end(),
                              s.latencies_ns.begin(), s.latencies_ns.end());
    total.hits += s.hits;
    total.fallbacks += s.fallbacks;
  }
  // Version-conflict retries of every attempt (all on the readers' node 0).
  total.retries =
      svc.metrics(0).GetCounter("mm.readpath.retry_count")->value();
  return total;
}

// Untimed companion run that emits a Perfetto trace of the cross-node read
// path for ci/validate_trace.py: a handful of remote faults, a write
// commit, and a flush — enough to exercise every flow shape (sync
// page_fault 's', async write_commit 'a', fan-out flush) without touching
// the timed measurements above.
void EmitTrace(const std::string& trace_path) {
  auto cluster = mm::sim::Cluster::PaperTestbed(2);
  mm::core::ServiceOptions so;
  so.tier_grants = {{mm::sim::TierKind::kDram, mm::MEGABYTES(64)},
                    {mm::sim::TierKind::kNvme, mm::MEGABYTES(256)}};
  so.telemetry.trace_path = trace_path;
  {
    mm::core::Service svc(cluster.get(), so);
    mm::core::VectorOptions vo;
    vo.nonvolatile = false;
    vo.page_size = kPageBytes;
    const std::uint64_t elems = kPages * kPageBytes / 8;
    auto meta = svc.RegisterVector("readpath_trace", 8, vo, elems);
    if (!meta.ok()) {
      std::fprintf(stderr, "RegisterVector: %s\n",
                   meta.status().ToString().c_str());
      std::exit(1);
    }
    svc.SetPgasHint(**meta, {elems, /*nprocs=*/2, /*ranks_per_node=*/1});
    mm::sim::SimTime t = 0.0;
    // Home a few pages on node 1, then fault them from node 0: each read is
    // one origin -> remote get_page -> stager flow.
    for (std::uint64_t p = kPages / 2; p < kPages / 2 + 4; ++p) {
      std::vector<std::uint8_t> bytes(kPageBytes, 0x5a);
      auto out = svc.WriteRegion(**meta, p, 0, std::move(bytes),
                                 /*from_node=*/1, t);
      t = std::max(t, out.done);
    }
    for (std::uint64_t p = kPages / 2; p < kPages / 2 + 4; ++p) {
      // Only the emitted fault flows matter; the data is checked elsewhere.
      (void)svc.ReadPage(**meta, p, /*from_node=*/0, t, &t);
    }
    // Trace is written by the Service destructor (Shutdown).
  }
  std::printf("wrote %s\n", trace_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 && argv[1][0] != '-' ? argv[1] : "BENCH_readpath.json";
  const bool csv = mmbench::CsvMode(argc, argv);
  std::string trace_path;  // --trace <path>: untimed trace-emission run
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--trace") trace_path = argv[i + 1];
  }
  if (!trace_path.empty()) EmitTrace(trace_path);

  PathStats queue = RunPath(/*optimistic=*/false);
  PathStats fast = RunPath(/*optimistic=*/true);

  mm::StatAccumulator queue_ns, fast_ns;
  for (double v : queue.latencies_ns) queue_ns.Add(v);
  for (double v : fast.latencies_ns) fast_ns.Add(v);

  const double attempts = static_cast<double>(fast.hits + fast.fallbacks);
  const double hit_ratio = attempts > 0 ? fast.hits / attempts : 0.0;
  const double retry_rate = attempts > 0 ? fast.retries / attempts : 0.0;
  const double p99_speedup = fast_ns.Percentile(99) > 0
                                 ? queue_ns.Percentile(99) /
                                       fast_ns.Percentile(99)
                                 : 0.0;

  mm::TablePrinter table({"path", "p50_ns", "p99_ns", "p999_ns", "mean_ns"});
  table.AddRow({"queue", mmbench::Fmt(queue_ns.Percentile(50), 0),
                mmbench::Fmt(queue_ns.Percentile(99), 0),
                mmbench::Fmt(queue_ns.Percentile(99.9), 0),
                mmbench::Fmt(queue_ns.Mean(), 0)});
  table.AddRow({"optimistic", mmbench::Fmt(fast_ns.Percentile(50), 0),
                mmbench::Fmt(fast_ns.Percentile(99), 0),
                mmbench::Fmt(fast_ns.Percentile(99.9), 0),
                mmbench::Fmt(fast_ns.Mean(), 0)});
  std::printf("%s", table.Render(csv).c_str());
  std::printf("hit_ratio=%.4f retry_rate=%.4f p99_speedup=%.2fx\n", hit_ratio,
              retry_rate, p99_speedup);

  mmbench::BenchReport report("readpath");
  report.Config("readers", kReaders);
  report.Config("ops_per_reader", kOpsPerReader);
  report.Config("page_bytes", static_cast<double>(kPageBytes));
  report.Config("pages", static_cast<double>(kPages));
  report.Metric("hit_ratio", hit_ratio);
  report.Metric("retry_rate", retry_rate);
  report.Metric("p99_speedup", p99_speedup);
  report.Metric("queue_p99_ns", queue_ns.Percentile(99));
  report.Metric("optimistic_p99_ns", fast_ns.Percentile(99));
  report.Series("queue_ns", queue_ns);
  report.Series("optimistic_ns", fast_ns);
  if (!report.Write(out_path)) return 1;
  return 0;
}
