// Fig. 5 reproduction: weak scaling of MegaMmap vs the alternative designs
// with datasets that fit entirely in memory.
//
// Paper setup (scaled 1/12 per EXPERIMENTS.md): 1..16 nodes, 48 procs/node,
// 2 GB/node KMeans+DBSCAN datasets, 128 MB/node RF, 16 GB/node Gray-Scott.
// Here: 1..8 nodes, 4 procs/node, 60k particles/node (KMeans/DBSCAN),
// 20k/node (RF), L grown so the grid scales with nodes (Gray-Scott).
// MegaMmap runs "with no optimizations enabled and only uses memory"
// (prefetcher/organizer off, DRAM-only grants). Spark baselines run over
// the TCP-grade network.
//
// Expected shape: MegaMmap tracks the MPI versions and beats Spark (up to
// ~2x), with weak-scaling curves that stay flat-ish in log(p).
#include "bench/common.h"

#include "mm/apps/dbscan.h"
#include "mm/apps/gray_scott.h"
#include "mm/apps/kmeans.h"
#include "mm/apps/random_forest.h"

using namespace mm;
using namespace mmbench;

namespace {

constexpr int kProcsPerNode = 4;
constexpr std::uint64_t kParticlesPerNode = 150000;
constexpr std::uint64_t kRfParticlesPerNode = 20000;
// DBSCAN's border-merge work grows with the dataset; a smaller per-node
// slice keeps the harness wall-clock bounded at 8 nodes.
constexpr std::uint64_t kDbParticlesPerNode = 20000;

core::ServiceOptions MemoryOnlyService() {
  core::ServiceOptions so;
  // Fig. 5: memory only, no optimizations.
  so.tier_grants = {{sim::TierKind::kDram, GIGABYTES(4)}};
  so.enable_prefetch = false;
  so.enable_organizer = false;
  return so;
}

std::unique_ptr<sim::Cluster> RoceCluster(int nodes) {
  return sim::Cluster::PaperTestbed(nodes);
}

std::unique_ptr<sim::Cluster> TcpCluster(int nodes) {
  return std::make_unique<sim::Cluster>(nodes, sim::NodeSpec::PaperCompute(),
                                        sim::NetworkSpec::Tcp10(),
                                        TERABYTES(64));
}

}  // namespace

Report mmbench::Fig5WeakScaling(const Args& args) {
  const int reps = args.reps;
  std::vector<int> node_counts = {1, 2, 4, 8};

  Report report({"app", "impl", "nodes", "procs", "runtime_s"});
  report.intro = Format(
      "=== Fig. 5: weak scaling, in-memory datasets ===\n"
      "(%d procs/node, %d reps averaged, virtual seconds)\n\n",
      kProcsPerNode, reps);
  WaitTally waits;
  report.Config("procs_per_node", kProcsPerNode);
  report.Config("reps", reps);
  report.Config("particles_per_node", double(kParticlesPerNode));
  auto record = [&](const char* app, const char* impl, int nodes,
                    double mean_s) {
    report.Row(std::string(app) + "_" + impl + "_n" + std::to_string(nodes),
               {app, impl, std::to_string(nodes),
                std::to_string(nodes * kProcsPerNode), mean_s});
  };

  for (int nodes : node_counts) {
    int procs = nodes * kProcsPerNode;
    BenchDir dir("fig5_n" + std::to_string(nodes));
    std::fprintf(stderr, "[fig5] nodes=%d ...\n", nodes);

    // ---- KMeans: MegaMmap vs Spark ----
    {
      std::string key =
          StageParticles(dir, kParticlesPerNode * nodes, 8, 42);
      apps::KMeansConfig cfg;
      cfg.k = 8;
      cfg.max_iter = 4;
      cfg.page_size = 256 * 1024;
      cfg.pcache_bytes = MEGABYTES(2);
      double mega = MeasureSeconds(report, reps, [&] {
        auto cluster = RoceCluster(nodes);
        core::Service svc(cluster.get(), MemoryOnlyService());
        return waits.RunRanks(*cluster, procs, kProcsPerNode,
                              [&](comm::RankContext& ctx) {
                                comm::Communicator comm(&ctx);
                                apps::KMeansMega(svc, comm, key, cfg);
                              });
      });
      record("KMeans", "MegaMmap", nodes, mega);
      double spark = MeasureSeconds(report, reps, [&] {
        auto cluster = TcpCluster(nodes);
        return waits.RunRanks(*cluster, procs, kProcsPerNode,
                              [&](comm::RankContext& ctx) {
                                comm::Communicator comm(&ctx);
                                apps::sparklike::SparkEnv env(ctx);
                                apps::KMeansSpark(env, comm, key, cfg);
                              });
      });
      record("KMeans", "Spark", nodes, spark);
      std::fprintf(stderr, "[fig5]   KMeans done\n");
    }

    // ---- Random Forest: MegaMmap vs Spark ----
    {
      std::string key = StageParticles(dir, kRfParticlesPerNode * nodes, 8,
                                       43, "rf_pts.bin");
      // Labels = halo ids (the classification target used in the paper's
      // workflow once KMeans assignments exist).
      apps::DatagenConfig gen;
      gen.num_particles = kRfParticlesPerNode * nodes;
      gen.halos = 8;
      gen.seed = 43;
      std::vector<apps::Particle> particles;
      auto truth = apps::GenerateParticles(gen, &particles);
      std::string lkey = dir.Key("posix", "rf_labels.bin");
      {
        auto resolved = storage::StagerRegistry::Default().Resolve(lkey);
        std::vector<std::int32_t> labels(truth.labels.begin(),
                                         truth.labels.end());
        std::vector<std::uint8_t> raw(labels.size() * 4);
        std::memcpy(raw.data(), labels.data(), raw.size());
        // Bench setup: a short write only skews the input, not the timing.
        (void)resolved->first->Create(resolved->second, raw.size());
        // Same bench-setup tolerance as the create above.
        (void)resolved->first->Write(resolved->second, 0, raw);
      }
      apps::RfConfig cfg;
      cfg.num_trees = 1;
      cfg.max_depth = 10;
      cfg.page_size = 256 * 1024;
      cfg.pcache_bytes = MEGABYTES(2);
      double mega = MeasureSeconds(report, reps, [&] {
        auto cluster = RoceCluster(nodes);
        core::Service svc(cluster.get(), MemoryOnlyService());
        return waits.RunRanks(
            *cluster, procs, kProcsPerNode, [&](comm::RankContext& ctx) {
              comm::Communicator comm(&ctx);
              apps::RandomForestMega(svc, comm, key, lkey, cfg);
            });
      });
      record("RF", "MegaMmap", nodes, mega);
      double spark = MeasureSeconds(report, reps, [&] {
        auto cluster = TcpCluster(nodes);
        return waits.RunRanks(
            *cluster, procs, kProcsPerNode, [&](comm::RankContext& ctx) {
              comm::Communicator comm(&ctx);
              apps::sparklike::SparkEnv env(ctx);
              apps::RandomForestSpark(env, comm, key, lkey, cfg);
            });
      });
      record("RF", "Spark", nodes, spark);
      std::fprintf(stderr, "[fig5]   RF done\n");
    }

    // ---- DBSCAN: MegaMmap vs MPI ----
    {
      // Density calibrated so core neighborhoods hold ~2x min_pts points
      // (the paper's eps=8/min_pts=64 applies to its Gadget data; we match
      // the density regime, not the absolute numbers). The box grows with
      // cbrt(N) so weak scaling keeps per-point work constant.
      std::string key = StageParticles(dir, kDbParticlesPerNode * nodes, 8, 44,
                                       "db_pts.bin",
                                       700.0 * std::cbrt(double(nodes)));
      apps::DbscanConfig cfg;
      cfg.eps = 4.0;
      cfg.min_pts = 32;
      cfg.page_size = 256 * 1024;
      cfg.pcache_bytes = MEGABYTES(2);
      double mega = MeasureSeconds(report, reps, [&] {
        auto cluster = RoceCluster(nodes);
        core::Service svc(cluster.get(), MemoryOnlyService());
        return waits.RunRanks(*cluster, procs, kProcsPerNode,
                              [&](comm::RankContext& ctx) {
                                comm::Communicator comm(&ctx);
                                apps::DbscanMega(svc, comm, key, cfg);
                              });
      });
      record("DBSCAN", "MegaMmap", nodes, mega);
      double mpi = MeasureSeconds(report, reps, [&] {
        auto cluster = RoceCluster(nodes);
        return waits.RunRanks(*cluster, procs, kProcsPerNode,
                              [&](comm::RankContext& ctx) {
                                comm::Communicator comm(&ctx);
                                apps::DbscanMpi(comm, key, cfg);
                              });
      });
      record("DBSCAN", "MPI", nodes, mpi);
      std::fprintf(stderr, "[fig5]   DBSCAN done\n");
    }

    // ---- Gray-Scott: MegaMmap vs MPI (plotgap=0, no checkpoints) ----
    {
      apps::GrayScottConfig cfg;
      // Weak scaling: grid volume grows with nodes (L ~ cbrt(nodes)),
      // mirroring the paper's L=784 (1 node) -> L=1920 (16 nodes). The
      // base L keeps per-rank compute large enough to amortize the DSM
      // page machinery, as the paper's 16 GB/node grids do.
      cfg.L = static_cast<std::size_t>(64.0 * std::cbrt(double(nodes)) + 0.5);
      cfg.steps = 3;
      cfg.plotgap = 0;
      cfg.page_size = 64 * 1024;
      cfg.pcache_bytes = MEGABYTES(8);
      double mega = MeasureSeconds(report, reps, [&] {
        auto cluster = RoceCluster(nodes);
        core::Service svc(cluster.get(), MemoryOnlyService());
        return waits.RunRanks(*cluster, procs, kProcsPerNode,
                              [&](comm::RankContext& ctx) {
                                comm::Communicator comm(&ctx);
                                apps::GrayScottMega(svc, comm, cfg);
                              });
      });
      record("GrayScott", "MegaMmap", nodes, mega);
      double mpi = MeasureSeconds(report, reps, [&] {
        auto cluster = RoceCluster(nodes);
        return waits.RunRanks(*cluster, procs, kProcsPerNode,
                              [&](comm::RankContext& ctx) {
                                comm::Communicator comm(&ctx);
                                apps::GrayScottMpi(comm, cfg);
                              });
      });
      record("GrayScott", "MPI", nodes, mpi);
      std::fprintf(stderr, "[fig5]   GrayScott done\n");
    }
  }
  waits.Record(report);
  return report;
}
