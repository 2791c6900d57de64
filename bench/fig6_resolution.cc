// Fig. 6 reproduction: increasing Gray-Scott resolution through tiering.
//
// Paper setup (scaled per EXPERIMENTS.md): L swept 2048..3456 on 16 nodes
// with 48 GB DRAM + 128 GB NVMe; the MPI version (over OrangeFS, Assise,
// Hermes backends) is OOM-killed past L=2688, while MegaMmap continues to
// L=3456 and runs >= 20% faster below the cliff.
//
// Here: 4 nodes scaled to 1/2^14 of the paper's device sizes (3 MB DRAM,
// 8 MB NVMe per node), L swept so the grid crosses the DRAM boundary
// mid-sweep. Checkpoints every step exercise the I/O backends.
#include "bench/common.h"

#include "mm/apps/gray_scott.h"

using namespace mm;
using namespace mmbench;

Report mmbench::Fig6Resolution(const Args& args) {
  const int reps = args.reps;
  const int nodes = 4, procs_per_node = 4;
  const double scale = 1.0 / 16384.0;  // 48 GB -> 3 MB DRAM etc.

  Report report({"L", "grid_MiB", "impl", "backend", "runtime_s"});
  report.intro = Format(
      "=== Fig. 6: Gray-Scott resolution sweep (tiered memory) ===\n"
      "(%d nodes x %d procs, device sizes scaled by 1/16384;\n"
      " node DRAM=%.1f MB; MPI rows crash past the DRAM boundary)\n\n",
      nodes, procs_per_node, 48.0 * 1024.0 * scale);
  WaitTally waits;

  std::vector<std::size_t> Ls = {40, 56, 72, 88, 104};
  for (std::size_t L : Ls) {
    double grid_mib = 2.0 * static_cast<double>(L) * L * L * 8 /
                      (1024.0 * 1024.0);  // both species
    apps::GrayScottConfig cfg;
    cfg.L = L;
    cfg.steps = 2;
    cfg.plotgap = 1;
    cfg.page_size = 128 * 1024;
    cfg.pcache_bytes = 768 * 1024;

    struct MpiRow {
      const char* name;
      apps::CkptBackend backend;
    };
    for (const MpiRow& row :
         {MpiRow{"OrangeFS", apps::CkptBackend::kPfsSync},
          MpiRow{"Assise", apps::CkptBackend::kAssiseLike},
          MpiRow{"Hermes", apps::CkptBackend::kHermesLike}}) {
      apps::GrayScottConfig mpi_cfg = cfg;
      mpi_cfg.ckpt = row.backend;
      bool oom = false;
      double t = MeasureSeconds(
          report, reps,
          [&] {
            auto cluster = sim::Cluster::PaperTestbed(nodes, scale);
            return waits.RunRanks(*cluster, nodes * procs_per_node,
                                  procs_per_node,
                                  [&](comm::RankContext& ctx) {
                                    comm::Communicator comm(&ctx);
                                    apps::GrayScottMpi(comm, mpi_cfg);
                                  });
          },
          &oom);
      report.Row("L" + std::to_string(L) + "_mpi_" + row.name,
                 {std::to_string(L), Cell(grid_mib, 1), "MPI", row.name,
                  oom ? Cell("OOM-killed") : Cell(t)});
    }

    {
      BenchDir dir("fig6_L" + std::to_string(L));
      apps::GrayScottConfig mega_cfg = cfg;
      mega_cfg.out_key = dir.Key("shdf", "gs.h5");
      double t = MeasureSeconds(report, reps, [&] {
        auto cluster = sim::Cluster::PaperTestbed(nodes, scale);
        core::ServiceOptions so;
        // Paper config: 48 GB DRAM + 128 GB NVMe per node, scaled.
        so.tier_grants = {
            {sim::TierKind::kDram,
             static_cast<std::uint64_t>(GIGABYTES(48) * scale * 0.9)},
            {sim::TierKind::kNvme,
             static_cast<std::uint64_t>(GIGABYTES(128) * scale * 0.9)}};
        core::Service svc(cluster.get(), so);
        return waits.RunRanks(*cluster, nodes * procs_per_node, procs_per_node,
                              [&](comm::RankContext& ctx) {
                                comm::Communicator comm(&ctx);
                                apps::GrayScottMega(svc, comm, mega_cfg);
                              });
      });
      report.Row("L" + std::to_string(L) + "_megammap",
                 {std::to_string(L), Cell(grid_mib, 1), "MegaMmap", "DMSH",
                  t});
    }
  }
  waits.Record(report);
  report.outro =
      "\nExpected shape: all MPI rows OOM once the slabs exceed the\n"
      "scaled node DRAM; MegaMmap keeps running (NVMe spill) and is\n"
      "faster than the synchronous backends below the cliff.\n";
  return report;
}
