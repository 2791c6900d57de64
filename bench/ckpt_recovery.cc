// Checkpoint/recovery experiment (mm::ckpt, DESIGN.md §12): a bench-local
// Lloyd KMeans runs over the DSM with a coordinated incremental checkpoint
// after every iteration, persisting its progress in a nonvolatile state
// vector [iterations_done, centroids...]. A second run is killed
// mid-iteration (ForceCrash: the dying service skips its clean-exit flush),
// reborn over the same directories, restored from the last published epoch,
// and resumed. The resumed run must land on bit-identical centroids.
//
// Reported (BENCH_ckpt_recovery.json, gated by ci/check_perf.py):
//   ckpt_overhead_fraction  mean checkpoint cost / mean epoch cost, both in
//                           virtual seconds — must stay under 10%;
//   restore_identical       1 when the resumed centroids memcmp-equal the
//                           uninterrupted run's — must be 1;
//   incremental_ratio       pages flushed / manifest pages of the steady-
//                           state checkpoint (only the state page is dirty).
#include "bench/common.h"

#include <cstring>

#include "mm/apps/points.h"
#include "mm/ckpt/collective.h"
#include "mm/core/service.h"

using namespace mm;
using namespace mmbench;

namespace {

constexpr int kClusters = 8;
constexpr int kIters = 6;
constexpr int kCrashIter = 3;  // killed while computing this iteration
constexpr std::uint64_t kNumPoints = 1200000;
constexpr std::uint64_t kPageBytes = 64 * 1024;
constexpr const char* kTag = "kmeans";

/// Persisted in the one-page nonvolatile state vector.
struct KmState {
  std::uint64_t iters_done = 0;
  apps::Point3 centroids[kClusters] = {};
};

struct RunTimes {
  StatAccumulator epoch_s;  // per-iteration virtual cost, checkpoint excluded
  StatAccumulator ckpt_s;   // per-checkpoint virtual cost
  double last_ratio = 0.0;  // incremental ratio of the last checkpoint
};

core::ServiceOptions MakeOptions(const BenchDir& dir,
                                 const std::string& ckpt_sub) {
  core::ServiceOptions so;
  // A small DRAM slice over NVMe: every epoch re-reads most of the ~14 MB
  // dataset from the lower tier, so the epoch cost is honest I/O.
  so.tier_grants = {{sim::TierKind::kDram, 256 * 1024},
                    {sim::TierKind::kNvme, MEGABYTES(64)}};
  so.ckpt.dir = (dir.path() / ckpt_sub).string();
  return so;
}

/// Reads the whole dataset through the DSM, charging the rank's clock.
std::vector<apps::Point3> ReadPoints(core::Service& svc,
                                     core::VectorMeta& meta,
                                     comm::RankContext& ctx,
                                     std::uint64_t max_pages = ~0ULL) {
  std::uint64_t bytes = kNumPoints * sizeof(apps::Point3);
  std::uint64_t pages = (bytes + kPageBytes - 1) / kPageBytes;
  pages = std::min(pages, max_pages);
  std::vector<std::uint8_t> raw;
  raw.reserve(pages * kPageBytes);
  sim::SimTime t = ctx.clock().now();
  for (std::uint64_t p = 0; p < pages; ++p) {
    sim::SimTime done = t;
    auto page = svc.ReadPage(meta, p, ctx.node(), t, &done);
    if (!page.ok()) {
      std::fprintf(stderr, "read page %llu failed: %s\n",
                   static_cast<unsigned long long>(p),
                   page.status().ToString().c_str());
      std::exit(1);
    }
    raw.insert(raw.end(), page->begin(), page->end());
    t = std::max(t, done);
  }
  ctx.clock().AdvanceTo(t);
  raw.resize(std::min<std::uint64_t>(raw.size(), bytes));
  std::vector<apps::Point3> points(raw.size() / sizeof(apps::Point3));
  std::memcpy(points.data(), raw.data(),
              points.size() * sizeof(apps::Point3));
  return points;
}

/// One Lloyd iteration; charges a nominal per-distance compute cost.
KmState Iterate(const KmState& in, const std::vector<apps::Point3>& points,
                comm::RankContext& ctx) {
  double sum[kClusters][3] = {};
  std::uint64_t count[kClusters] = {};
  for (const auto& pt : points) {
    int best = 0;
    double best_d = apps::Dist2(pt, in.centroids[0]);
    for (int c = 1; c < kClusters; ++c) {
      double d = apps::Dist2(pt, in.centroids[c]);
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    sum[best][0] += pt.x;
    sum[best][1] += pt.y;
    sum[best][2] += pt.z;
    ++count[best];
  }
  ctx.clock().Advance(static_cast<double>(points.size()) * kClusters * 1e-9);
  KmState out = in;
  out.iters_done = in.iters_done + 1;
  for (int c = 0; c < kClusters; ++c) {
    if (count[c] == 0) continue;  // empty cluster keeps its centroid
    out.centroids[c].x = static_cast<float>(sum[c][0] / count[c]);
    out.centroids[c].y = static_cast<float>(sum[c][1] / count[c]);
    out.centroids[c].z = static_cast<float>(sum[c][2] / count[c]);
  }
  return out;
}

void WriteState(core::Service& svc, core::VectorMeta& meta,
                const KmState& state, comm::RankContext& ctx) {
  std::vector<std::uint8_t> bytes(sizeof(KmState));
  std::memcpy(bytes.data(), &state, sizeof(KmState));
  auto out = svc.WriteRegion(meta, 0, 0, std::move(bytes), ctx.node(),
                             ctx.clock().now());
  if (!out.status.ok()) {
    std::fprintf(stderr, "state write failed: %s\n",
                 out.status.ToString().c_str());
    std::exit(1);
  }
  ctx.clock().AdvanceTo(out.done);
}

KmState ReadState(core::Service& svc, core::VectorMeta& meta,
                  comm::RankContext& ctx) {
  sim::SimTime done = ctx.clock().now();
  auto page = svc.ReadPage(meta, 0, ctx.node(), ctx.clock().now(), &done);
  if (!page.ok()) {
    std::fprintf(stderr, "state read failed: %s\n",
                 page.status().ToString().c_str());
    std::exit(1);
  }
  ctx.clock().AdvanceTo(done);
  KmState state;
  std::memcpy(&state, page->data(), sizeof(KmState));
  return state;
}

/// Runs iterations [state.iters_done, kIters), checkpointing after each.
/// When `crash_at >= 0`, dies mid-iteration `crash_at` (half the dataset
/// read, nothing committed) and returns with the injector crashed.
KmState RunLoop(core::Service& svc, core::VectorMeta& data,
                core::VectorMeta& st_vec, comm::Communicator& comm,
                comm::RankContext& ctx, KmState state, int crash_at,
                RunTimes* times) {
  std::uint64_t pages =
      (kNumPoints * sizeof(apps::Point3) + kPageBytes - 1) / kPageBytes;
  for (int iter = static_cast<int>(state.iters_done); iter < kIters; ++iter) {
    if (iter == crash_at) {
      // The crash lands mid-epoch: half the dataset read, the iteration's
      // state never written. Shutdown will skip the clean-exit flush.
      (void)ReadPoints(svc, data, ctx, pages / 2);
      svc.fault_injector().ForceCrash();
      return state;
    }
    sim::SimTime epoch_start = ctx.clock().now();
    auto points = ReadPoints(svc, data, ctx);
    state = Iterate(state, points, ctx);
    WriteState(svc, st_vec, state, ctx);
    double epoch_s = ctx.clock().now() - epoch_start;
    auto stats = ckpt::CollectiveCheckpoint(comm, svc, kTag);
    if (!stats.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n",
                   stats.status().ToString().c_str());
      std::exit(1);
    }
    if (times != nullptr) {
      times->epoch_s.Add(epoch_s);
      times->ckpt_s.Add(stats->duration_s);
      times->last_ratio = stats->incremental_ratio;
    }
  }
  return state;
}

/// Registers the data and state vectors; seeds the centroids from the first
/// kClusters points when starting fresh.
KmState Setup(core::Service& svc, const std::string& data_key,
              const std::string& state_key, comm::RankContext& ctx,
              core::VectorMeta** data, core::VectorMeta** st_vec) {
  core::VectorOptions dv;
  dv.page_size = kPageBytes;
  auto dm = svc.RegisterVector(data_key, 1, dv);
  core::VectorOptions sv;
  sv.page_size = 4096;
  auto sm = svc.RegisterVector(state_key, 1, sv, 4096);
  if (!dm.ok() || !sm.ok()) {
    std::fprintf(stderr, "register failed\n");
    std::exit(1);
  }
  *data = *dm;
  *st_vec = *sm;
  KmState state;
  auto points = ReadPoints(svc, **dm, ctx, 1);
  for (int c = 0; c < kClusters; ++c) state.centroids[c] = points[c];
  return state;
}

}  // namespace

Report mmbench::CkptRecovery(const Args&) {
  Report report;
  BenchDir dir("ckpt_recovery");
  std::string data_key = StageParticles(dir, kNumPoints, 8, 42);

  // --- Reference: uninterrupted, checkpointing every iteration. ---
  RunTimes times;
  KmState reference;
  {
    auto cluster = sim::Cluster::PaperTestbed(1);
    core::Service svc(cluster.get(), MakeOptions(dir, "ckpt_ref"));
    auto run = comm::RunRanks(*cluster, 1, 1, [&](comm::RankContext& ctx) {
      comm::Communicator comm(&ctx);
      core::VectorMeta* data = nullptr;
      core::VectorMeta* st_vec = nullptr;
      KmState state =
          Setup(svc, data_key, dir.Key("posix", "state_ref.bin"), ctx, &data,
                &st_vec);
      reference = RunLoop(svc, *data, *st_vec, comm, ctx, state,
                          /*crash_at=*/-1, &times);
    });
    if (!run.ok()) {
      report.Fail("reference run: " + run.error);
      return report;
    }
  }

  // --- Crash run: killed mid-iteration, reborn, restored, resumed. ---
  std::string crash_state_key = dir.Key("posix", "state_crash.bin");
  {
    auto cluster = sim::Cluster::PaperTestbed(1);
    core::Service svc(cluster.get(), MakeOptions(dir, "ckpt_crash"));
    auto run = comm::RunRanks(*cluster, 1, 1, [&](comm::RankContext& ctx) {
      comm::Communicator comm(&ctx);
      core::VectorMeta* data = nullptr;
      core::VectorMeta* st_vec = nullptr;
      KmState state = Setup(svc, data_key, crash_state_key, ctx, &data,
                            &st_vec);
      // The crashed run's in-memory state dies with it; recovery reads disk.
      (void)RunLoop(svc, *data, *st_vec, comm, ctx, state, kCrashIter,
                    nullptr);
    });
    if (!run.ok()) {
      report.Fail("crash run: " + run.error);
      return report;
    }
    // The service dies here with the crash flag set: no clean-exit flush.
  }

  KmState resumed;
  std::uint64_t restored_iters = 0;
  {
    auto cluster = sim::Cluster::PaperTestbed(1);
    core::Service svc(cluster.get(), MakeOptions(dir, "ckpt_crash"));
    auto run = comm::RunRanks(*cluster, 1, 1, [&](comm::RankContext& ctx) {
      comm::Communicator comm(&ctx);
      Status rs = ckpt::CollectiveRestore(comm, svc, kTag);
      if (!rs.ok()) {
        std::fprintf(stderr, "restore failed: %s\n", rs.ToString().c_str());
        std::exit(1);
      }
      core::VectorMeta* data = svc.FindVector(data_key);
      core::VectorMeta* st_vec = svc.FindVector(crash_state_key);
      if (data == nullptr || st_vec == nullptr) {
        std::fprintf(stderr, "restore did not rebuild the vectors\n");
        std::exit(1);
      }
      KmState state = ReadState(svc, *st_vec, ctx);
      restored_iters = state.iters_done;
      resumed = RunLoop(svc, *data, *st_vec, comm, ctx, state,
                        /*crash_at=*/-1, nullptr);
    });
    if (!run.ok()) {
      report.Fail("resume run: " + run.error);
      return report;
    }
  }

  bool identical =
      std::memcmp(reference.centroids, resumed.centroids,
                  sizeof(reference.centroids)) == 0 &&
      reference.iters_done == resumed.iters_done;
  double overhead = times.ckpt_s.Mean() /
                    (times.epoch_s.Mean() > 0 ? times.epoch_s.Mean() : 1.0);

  report.intro = "=== Checkpoint/recovery: KMeans killed mid-iteration ===\n\n";
  report.Config("points", static_cast<double>(kNumPoints));
  report.Config("clusters", kClusters);
  report.Config("iterations", kIters);
  report.Config("crash_iteration", kCrashIter);
  report.Config("page_bytes", static_cast<double>(kPageBytes));
  report.Metric("epoch_s_mean", times.epoch_s.Mean());
  report.Metric("ckpt_s_mean", times.ckpt_s.Mean());
  report.Metric("ckpt_overhead_fraction", overhead);
  report.Metric("incremental_ratio", times.last_ratio);
  report.Metric("restored_at_iter", Cell(restored_iters, 0));
  report.Metric("resumed_iterations",
                Cell(kIters - static_cast<double>(restored_iters), 0));
  report.Metric("restore_identical", Flag(identical));
  report.outro = Format(
      "\nExpected: the resumed run restores at iteration %d (the last\n"
      "published epoch before the crash) and finishes with the reference\n"
      "run's exact centroids; checkpoints cost well under 10%% of an epoch\n"
      "because only the dirty state page is flushed.\n",
      kCrashIter);
  if (!identical) report.Fail("resumed centroids differ from the reference");
  return report;
}
