// Fig. 8 reproduction: lowering DRAM consumption. Each application runs on
// a fixed dataset while the DRAM granted to MegaMmap shrinks; intelligent
// prefetching/eviction keeps performance within ~10% down to a 2-2.6x
// reduction, after which frequent synchronous faults and NVMe spills cost
// up to ~2.5x.
//
// Paper setup: 1 TB datasets, 1536 procs over 32 nodes, DRAM swept 4-32 GB
// per node, overflow to NVMe. Here: 4 nodes x 4 procs, MB-scale datasets,
// the DRAM grant swept from fitting the whole dataset down to 1/8 of it
// (the pcache bound shrinks proportionally).
#include "bench/common.h"

#include "mm/apps/dbscan.h"
#include "mm/apps/gray_scott.h"
#include "mm/apps/kmeans.h"
#include "mm/apps/random_forest.h"

using namespace mm;
using namespace mmbench;

namespace {

constexpr int kNodes = 4, kProcsPerNode = 4;

/// DRAM fractions of the full-dataset grant (1 = everything fits).
const std::vector<double> kFractions = {1.0, 0.75, 0.5, 0.375, 0.25, 0.125};

core::ServiceOptions TieredService(std::uint64_t dram_per_node) {
  core::ServiceOptions so;
  so.tier_grants = {{sim::TierKind::kDram, dram_per_node},
                    {sim::TierKind::kNvme, GIGABYTES(2)}};  // ample NVMe
  return so;
}

}  // namespace

Report mmbench::Fig8MemScaling(const Args& args) {
  const int reps = args.reps;
  const int procs = kNodes * kProcsPerNode;

  Report report({"app", "dram_frac", "runtime_s", "vs_full_dram"});
  report.intro = Format(
      "=== Fig. 8: DRAM scaling (overflow to NVMe) ===\n"
      "(%d nodes x %d procs, %d reps; dram_frac = DRAM grant as a\n"
      " fraction of the dataset's per-node footprint)\n\n",
      kNodes, kProcsPerNode, reps);
  // Row keys name the app and the DRAM fraction in thousandths.
  auto add_row = [&](const char* app, double frac, double t, double full) {
    report.Row(std::string(app) + "_" +
                   std::to_string(static_cast<int>(frac * 1000)),
               {app, Cell(frac, 3), t, Cell(t / full, 2)});
  };

  BenchDir dir("fig8");
  const std::uint64_t particles = 240000;  // ~5.8 MB dataset
  std::string key = StageParticles(dir, particles, 8, 42, "pts.bin",
                                   1000.0 * std::cbrt(4.0));
  std::uint64_t dataset_bytes = particles * sizeof(apps::Particle);
  std::uint64_t full_dram_per_node = dataset_bytes / kNodes * 2;

  auto sweep = [&](const char* app,
                   const std::function<mm::comm::RunResult(
                       core::Service&, sim::Cluster&, double frac)>& run) {
    double full = 0;
    for (double frac : kFractions) {
      double t = MeasureSeconds(report, reps, [&] {
        auto cluster = sim::Cluster::PaperTestbed(kNodes);
        core::Service svc(
            cluster.get(),
            TieredService(static_cast<std::uint64_t>(full_dram_per_node * frac)));
        return run(svc, *cluster, frac);
      });
      if (frac == 1.0) full = t;
      add_row(app, frac, t, full);
    }
  };

  // ---- KMeans ----
  sweep("KMeans", [&](core::Service& svc, sim::Cluster& cluster, double frac) {
    apps::KMeansConfig cfg;
    cfg.k = 8;
    cfg.max_iter = 4;
    cfg.page_size = 64 * 1024;
    cfg.pcache_bytes = std::max<std::uint64_t>(
        2 * cfg.page_size,
        static_cast<std::uint64_t>(dataset_bytes / procs * frac));
    return comm::RunRanks(cluster, procs, kProcsPerNode,
                          [&](comm::RankContext& ctx) {
                            comm::Communicator comm(&ctx);
                            apps::KMeansMega(svc, comm, key, cfg);
                          });
  });

  // ---- DBSCAN ----
  sweep("DBSCAN", [&](core::Service& svc, sim::Cluster& cluster, double frac) {
    apps::DbscanConfig cfg;
    cfg.eps = 4.0;
    cfg.min_pts = 32;
    cfg.page_size = 64 * 1024;
    cfg.pcache_bytes = std::max<std::uint64_t>(
        2 * cfg.page_size,
        static_cast<std::uint64_t>(dataset_bytes / procs * frac));
    return comm::RunRanks(cluster, procs, kProcsPerNode,
                          [&](comm::RankContext& ctx) {
                            comm::Communicator comm(&ctx);
                            apps::DbscanMega(svc, comm, key, cfg);
                          });
  });

  // ---- Random Forest (labels = KMeans assignments, paper workflow) ----
  std::string assign_key = dir.Key("posix", "assign.bin");
  {
    auto cluster = sim::Cluster::PaperTestbed(kNodes);
    core::Service svc(cluster.get(), TieredService(full_dram_per_node));
    apps::KMeansConfig kcfg;
    kcfg.k = 8;
    kcfg.max_iter = 4;
    kcfg.page_size = 64 * 1024;
    kcfg.pcache_bytes = MEGABYTES(1);
    kcfg.assign_key = assign_key;
    auto seed_run = comm::RunRanks(*cluster, procs, kProcsPerNode,
                                   [&](comm::RankContext& ctx) {
                                     comm::Communicator comm(&ctx);
                                     apps::KMeansMega(svc, comm, key, kcfg);
                                   });
    if (!seed_run.ok()) {
      report.Fail("assignment stage: " + seed_run.error);
      return report;
    }
    svc.Shutdown();
  }
  sweep("RF", [&](core::Service& svc, sim::Cluster& cluster, double frac) {
    apps::RfConfig cfg;
    cfg.num_trees = 1;
    cfg.max_depth = 10;
    // RF's bagging is pseudo-random: small pages avoid fetching 64 KiB for
    // every 24-byte sample (the per-vector page-size knob of §III-C).
    cfg.page_size = 8 * 1024;
    cfg.pcache_bytes = std::max<std::uint64_t>(
        2 * cfg.page_size,
        static_cast<std::uint64_t>(dataset_bytes / procs * frac));
    return comm::RunRanks(cluster, procs, kProcsPerNode,
                          [&](comm::RankContext& ctx) {
                            comm::Communicator comm(&ctx);
                            apps::RandomForestMega(svc, comm, key, assign_key,
                                                   cfg);
                          });
  });

  // ---- Gray-Scott (write-heavy, plotgap=1) ----
  {
    const std::size_t L = 64;
    std::uint64_t grid_per_node = 4ULL * L * L * L * sizeof(double) / kNodes;
    double full = 0;
    for (double frac : kFractions) {
      BenchDir gs_dir("fig8_gs_" + std::to_string(frac));
      apps::GrayScottConfig cfg;
      cfg.L = L;
      cfg.steps = 3;
      cfg.plotgap = 1;
      cfg.out_key = gs_dir.Key("shdf", "gs.h5");
      cfg.page_size = 32 * 1024;
      cfg.pcache_bytes = std::max<std::uint64_t>(
          2 * cfg.page_size,
          static_cast<std::uint64_t>(grid_per_node / kProcsPerNode * frac));
      double t = MeasureSeconds(report, reps, [&] {
        auto cluster = sim::Cluster::PaperTestbed(kNodes);
        core::Service svc(
            cluster.get(),
            TieredService(static_cast<std::uint64_t>(grid_per_node * 2 * frac)));
        return comm::RunRanks(*cluster, procs, kProcsPerNode,
                              [&](comm::RankContext& ctx) {
                                comm::Communicator comm(&ctx);
                                apps::GrayScottMega(svc, comm, cfg);
                              });
      });
      if (frac == 1.0) full = t;
      add_row("GrayScott", frac, t, full);
    }
  }

  report.outro =
      "\nExpected shape: flat (within ~10%) down to ~0.4-0.5 of the\n"
      "full grant, then a fault/spill cliff of up to ~2.5x.\n";
  return report;
}
