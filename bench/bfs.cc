// Graph500-style BFS benchmark: R-MAT graph in a CSR spread over two
// MegaMmap vectors, level-synchronous traversal across ranks, TEPS on the
// virtual clock. The irregular, read-only page touches fault through
// ReadPage and replicate under read-only-global coherence; correctness is
// gated hard — the traversal must match the in-memory reference
// depth-for-depth (rmat.identical).
#include <cstdio>

#include "bench/common.h"
#include "mm/apps/bfs.h"
#include "mm/mega_mmap.h"

mmbench::Report mmbench::Bfs(const Args& args) {
  const int reps = args.reps;
  Report report(
      {"nodes", "scale", "edges", "teps", "sim_s", "faults", "identical"});

  mm::apps::RmatConfig rmat;
  rmat.scale = 12;        // 4096 vertices
  rmat.edge_factor = 16;  // 65536 directed R-MAT edges
  rmat.seed = 7;
  auto edges = mm::apps::GenerateRmat(rmat);
  const std::uint64_t n = 1ULL << rmat.scale;
  mm::apps::Csr csr = mm::apps::BuildCsr(edges, n);
  auto want = mm::apps::ReferenceBfs(csr, 0);

  const int nodes = 4;
  mm::apps::BfsConfig cfg;
  cfg.source = 0;
  cfg.page_size = 4096;
  // Cache bound well under the CSR footprint so the kernel actually pages.
  cfg.pcache_bytes = 64 * 1024;

  mm::StatAccumulator teps_acc, sim_s_acc, faults_acc;
  bool identical = true;
  for (int rep = 0; rep < reps; ++rep) {
    auto cluster = mm::sim::Cluster::PaperTestbed(nodes);
    mm::core::ServiceOptions so;
    so.tier_grants = {{mm::sim::TierKind::kDram, mm::MEGABYTES(16)},
                      {mm::sim::TierKind::kNvme, mm::MEGABYTES(64)}};
    mm::core::Service svc(cluster.get(), so);
    mm::apps::BfsResult result;
    auto run = mm::comm::RunRanks(
        *cluster, nodes, /*ranks_per_node=*/1, [&](mm::comm::RankContext& ctx) {
          mm::comm::Communicator comm(&ctx);
          mm::apps::BfsResult r = mm::apps::MegaBfs(svc, comm, csr, cfg);
          if (comm.rank() == 0) result = std::move(r);
        });
    if (!run.ok()) {
      report.Fail(run.error);
      return report;
    }
    for (std::size_t v = 0; v < want.size(); ++v) {
      if (result.depth[v] != want[v]) identical = false;
    }
    teps_acc.Add(result.teps);
    sim_s_acc.Add(result.sim_seconds);
    faults_acc.Add(static_cast<double>(result.faults));
  }

  report.Row("rmat", {std::to_string(nodes), std::to_string(rmat.scale),
                      std::to_string(csr.cols.size()), teps_acc.Mean(),
                      sim_s_acc.Mean(), Cell(faults_acc.Mean(), 0),
                      Flag(identical)});
  report.Config("nodes", nodes);
  report.Config("scale", rmat.scale);
  report.Config("edge_factor", rmat.edge_factor);
  report.Config("page_bytes", static_cast<double>(cfg.page_size));
  report.Config("pcache_bytes", static_cast<double>(cfg.pcache_bytes));
  if (!identical) report.Fail("BFS depths differ from the reference");
  return report;
}
