// Node-failure experiment (DESIGN.md §13): a distributed KMeans runs over
// the DSM on two nodes with link faults armed (drops + duplicates), taking
// a coordinated checkpoint every iteration. Mid-epoch a rank is killed;
// the survivors detect the death through the bounded collectives
// (kPeerDead), revoke, run ckpt::CollectiveRecover (re-home policy), shrink
// the communicator, redo the interrupted iteration on the remaining ranks,
// and finish the job. A fault-free reference run provides ground truth.
//
// Reported (BENCH_node_failure.json, gated by ci/check_perf.py):
//   recovery_time_fraction  virtual time from the kPeerDead verdict to the
//                           shrunk communicator / total job time — the
//                           failure-handling tax, must stay bounded;
//   retransmit_overhead     link retransmissions / total messages under the
//                           injected drop rate;
//   converged               1 when the survivors' final centroids match the
//                           fault-free reference within FP-reassociation
//                           tolerance;
//   pages_lost              dead node's pages not recoverable (must be 0:
//                           the epoch checkpoint makes everything durable).
#include "bench/common.h"

#include <cmath>
#include <cstring>

#include "mm/apps/points.h"
#include "mm/ckpt/collective.h"
#include "mm/ckpt/recovery.h"
#include "mm/core/service.h"
#include "mm/sim/network.h"

using namespace mm;
using namespace mmbench;

namespace {

constexpr int kClusters = 8;
constexpr int kIters = 6;
constexpr int kKillIter = 3;  // victim dies while reading this epoch's data
constexpr int kVictim = 3;
// One rank per node: the victim's death takes its whole node — and the DSM
// pages homed there — with it, so recovery actually re-homes state.
constexpr int kRanks = 4;
constexpr int kRanksPerNode = 1;
constexpr std::uint64_t kNumPoints = 600000;
constexpr std::uint64_t kPageBytes = 64 * 1024;
constexpr const char* kTag = "kmeans";

/// Centroids accumulate in doubles end to end so the only cross-run
/// difference is reduction-tree reassociation (~1e-13 relative), far inside
/// the convergence tolerance.
struct Centroids {
  double c[kClusters][3] = {};
};

struct Outcome {
  Centroids centroids;
  double recovery_s = 0.0;  // detect → shrunk communicator, virtual
  double total_s = 0.0;
  bool recovered = false;
  core::Service::RecoveryStats rec_stats;
};

core::ServiceOptions MakeOptions(const BenchDir& dir,
                                 const std::string& ckpt_sub) {
  core::ServiceOptions so;
  so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(1)},
                    {sim::TierKind::kNvme, MEGABYTES(64)}};
  so.ckpt.dir = (dir.path() / ckpt_sub).string();
  so.recovery_policy = core::RecoveryPolicy::kRehome;
  return so;
}

std::uint64_t TotalPages() {
  return (kNumPoints * sizeof(apps::Point3) + kPageBytes - 1) / kPageBytes;
}

/// Reads pages [begin, end) and folds them into the per-cluster sums.
void FoldPages(core::Service& svc, core::VectorMeta& meta,
               comm::RankContext& ctx, const Centroids& in, std::uint64_t begin,
               std::uint64_t end, double sum[kClusters][3],
               double count[kClusters]) {
  sim::SimTime t = ctx.clock().now();
  std::uint64_t folded = 0;
  for (std::uint64_t p = begin; p < end; ++p) {
    sim::SimTime done = t;
    auto page = svc.ReadPage(meta, p, ctx.node(), t, &done);
    if (!page.ok()) {
      std::fprintf(stderr, "read page %llu failed: %s\n",
                   static_cast<unsigned long long>(p),
                   page.status().ToString().c_str());
      std::exit(1);
    }
    t = std::max(t, done);
    std::uint64_t pts = page->size() / sizeof(apps::Point3);
    std::uint64_t base = p * (kPageBytes / sizeof(apps::Point3));
    pts = std::min(pts, kNumPoints > base ? kNumPoints - base : 0);
    const auto* points = reinterpret_cast<const apps::Point3*>(page->data());
    for (std::uint64_t i = 0; i < pts; ++i) {
      const apps::Point3& pt = points[i];
      int best = 0;
      double best_d = 0.0;
      for (int c = 0; c < kClusters; ++c) {
        double dx = pt.x - in.c[c][0];
        double dy = pt.y - in.c[c][1];
        double dz = pt.z - in.c[c][2];
        double d = dx * dx + dy * dy + dz * dz;
        if (c == 0 || d < best_d) {
          best_d = d;
          best = c;
        }
      }
      sum[best][0] += pt.x;
      sum[best][1] += pt.y;
      sum[best][2] += pt.z;
      count[best] += 1.0;
    }
    folded += pts;
  }
  ctx.clock().AdvanceTo(t);
  ctx.Compute(static_cast<double>(folded) * kClusters * 1e-9);
}

/// Seeds the centroids from the first kClusters points (every rank derives
/// the same seeds from page 0).
Centroids SeedCentroids(core::Service& svc, core::VectorMeta& meta,
                        comm::RankContext& ctx) {
  sim::SimTime done = ctx.clock().now();
  auto page = svc.ReadPage(meta, 0, ctx.node(), ctx.clock().now(), &done);
  if (!page.ok()) {
    std::fprintf(stderr, "seed read failed: %s\n",
                 page.status().ToString().c_str());
    std::exit(1);
  }
  ctx.clock().AdvanceTo(done);
  const auto* points = reinterpret_cast<const apps::Point3*>(page->data());
  Centroids seed;
  for (int c = 0; c < kClusters; ++c) {
    seed.c[c][0] = points[c].x;
    seed.c[c][1] = points[c].y;
    seed.c[c][2] = points[c].z;
  }
  return seed;
}

/// One job: KMeans with a per-epoch collective checkpoint. When `kill` is
/// true, rank kVictim dies mid-read of iteration kKillIter and the
/// survivors recover, shrink, and redo the epoch. Returns via `out` (filled
/// by rank 0, which always survives).
comm::RunResult RunJob(sim::Cluster& cluster, core::Service& svc,
                       const std::string& data_key, bool kill, Outcome* out) {
  return comm::RunRanks(
      cluster, kRanks, kRanksPerNode, [&](comm::RankContext& ctx) {
        comm::Communicator world(&ctx);
        comm::Communicator comm = world;
        int nlive = kRanks;
        core::VectorOptions vo;
        vo.page_size = kPageBytes;
        auto meta = svc.RegisterVector(data_key, 1, vo);
        if (!meta.ok()) {
          std::fprintf(stderr, "register failed\n");
          std::exit(1);
        }
        Centroids state = SeedCentroids(svc, **meta, ctx);
        const std::uint64_t pages = TotalPages();
        auto sum_op = [](double a, double b) { return a + b; };
        int iter = 0;
        while (iter < kIters) {
          std::uint64_t begin = pages * comm.rank() / nlive;
          std::uint64_t end = pages * (comm.rank() + 1) / nlive;
          if (kill && iter == kKillIter && ctx.rank() == kVictim) {
            // Mid-epoch death: half the slice read, nothing contributed.
            double dummy_sum[kClusters][3] = {};
            double dummy_count[kClusters] = {};
            FoldPages(svc, **meta, ctx, state, begin, (begin + end) / 2,
                      dummy_sum, dummy_count);
            ctx.world().KillRank(ctx.rank(), ctx.clock().now());
            throw comm::RankDeathError(ctx.rank());
          }
          double sum[kClusters][3] = {};
          double count[kClusters] = {};
          FoldPages(svc, **meta, ctx, state, begin, end, sum, count);
          std::vector<double> flat(kClusters * 4);
          for (int c = 0; c < kClusters; ++c) {
            flat[c * 4 + 0] = sum[c][0];
            flat[c * 4 + 1] = sum[c][1];
            flat[c * 4 + 2] = sum[c][2];
            flat[c * 4 + 3] = count[c];
          }
          Status st = comm.AllReduceOr(flat, sum_op);
          if (!st.ok()) {
            // A peer died. Revoke, converge on the recovery barrier,
            // re-home the dead node's pages, shrink, redo the epoch.
            sim::SimTime detect = ctx.clock().now();
            comm.Revoke();
            auto rec = ckpt::CollectiveRecover(world, svc);
            if (!rec.ok()) {
              std::fprintf(stderr, "recovery failed: %s\n",
                           rec.status().ToString().c_str());
              std::exit(1);
            }
            comm = world.Shrink();
            nlive = ctx.world().live_ranks();
            if (ctx.rank() == 0 && out != nullptr) {
              out->recovered = true;
              out->recovery_s = ctx.clock().now() - detect;
              out->rec_stats = *rec;
            }
            continue;  // redo this iteration on the survivors
          }
          for (int c = 0; c < kClusters; ++c) {
            double n = flat[c * 4 + 3];
            if (n == 0.0) continue;  // empty cluster keeps its centroid
            state.c[c][0] = flat[c * 4 + 0] / n;
            state.c[c][1] = flat[c * 4 + 1] / n;
            state.c[c][2] = flat[c * 4 + 2] / n;
          }
          auto stats = ckpt::CollectiveCheckpoint(world, svc, kTag);
          if (!stats.ok()) {
            std::fprintf(stderr, "checkpoint failed: %s\n",
                         stats.status().ToString().c_str());
            std::exit(1);
          }
          ++iter;
        }
        if (ctx.rank() == 0 && out != nullptr) {
          out->centroids = state;
          out->total_s = ctx.clock().now();
        }
      });
}

}  // namespace

Report mmbench::NodeFailure(const Args&) {
  Report report;
  BenchDir dir("node_failure");
  std::string data_key = StageParticles(dir, kNumPoints, 8, 42);

  // --- Reference: fault-free, same geometry. ---
  Outcome reference;
  {
    auto cluster = sim::Cluster::PaperTestbed(4);
    core::Service svc(cluster.get(), MakeOptions(dir, "ckpt_ref"));
    auto run = RunJob(*cluster, svc, data_key, /*kill=*/false, &reference);
    if (!run.ok()) {
      report.Fail("reference run: " + run.error);
      return report;
    }
  }

  // --- Failure run: link faults armed, rank killed mid-epoch. ---
  Outcome failed;
  std::uint64_t retransmits = 0;
  std::uint64_t messages = 0;
  std::vector<int> dead_ranks;
  {
    auto cluster = sim::Cluster::PaperTestbed(4);
    sim::NetFaultSpec net;
    net.drop_rate = 0.02;
    net.dup_rate = 0.01;
    cluster->network().ConfigureFaults(net, /*seed=*/42);
    core::Service svc(cluster.get(), MakeOptions(dir, "ckpt_kill"));
    auto run = RunJob(*cluster, svc, data_key, /*kill=*/true, &failed);
    if (!run.ok()) {
      report.Fail("failure run: " + run.error);
      return report;
    }
    retransmits = cluster->network().retransmits();
    messages = cluster->network().total_messages();
    dead_ranks = run.dead_ranks;
  }

  double max_diff = 0.0;
  for (int c = 0; c < kClusters; ++c) {
    for (int d = 0; d < 3; ++d) {
      max_diff = std::max(
          max_diff, std::fabs(reference.centroids.c[c][d] -
                              failed.centroids.c[c][d]));
    }
  }
  // The only legitimate divergence is reduction-tree reassociation (the
  // survivors reduce over 3 ranks instead of 4); anything larger means the
  // redo lost or double-counted data.
  bool converged = failed.recovered && max_diff < 1e-6 &&
                   dead_ranks == std::vector<int>{kVictim};
  double recovery_fraction =
      failed.total_s > 0.0 ? failed.recovery_s / failed.total_s : 1.0;
  double retransmit_overhead =
      messages > 0 ? static_cast<double>(retransmits) /
                         static_cast<double>(messages)
                   : 0.0;

  report.intro = "=== Node failure: KMeans rank killed mid-epoch ===\n\n";
  report.Config("points", static_cast<double>(kNumPoints));
  report.Config("clusters", kClusters);
  report.Config("iterations", kIters);
  report.Config("kill_iteration", kKillIter);
  report.Config("victim_rank", kVictim);
  report.Config("ranks", kRanks);
  report.Config("drop_rate", 0.02);
  report.Metric("total_s", failed.total_s);
  report.Metric("recovery_s", failed.recovery_s);
  report.Metric("recovery_time_fraction", recovery_fraction);
  report.Metric("retransmit_overhead", retransmit_overhead);
  report.Metric("pages_rehomed", Cell(failed.rec_stats.rehomed, 0));
  report.Metric("pages_lost", Cell(failed.rec_stats.lost, 0));
  report.Metric("max_centroid_diff", Cell(max_diff, 9));
  report.Metric("converged", Flag(converged));
  report.outro = Format(
      "\nExpected: rank %d dies reading epoch %d; the survivors detect it\n"
      "through the bounded collective, re-home the dead node's pages (all\n"
      "durable thanks to the per-epoch checkpoint: 0 lost), redo the epoch\n"
      "3-wide, and land on the reference centroids within reassociation\n"
      "tolerance.\n",
      kVictim, kKillIter);
  if (!converged) report.Fail("survivors did not converge");
  return report;
}
