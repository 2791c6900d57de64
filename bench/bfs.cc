// Graph500-style BFS benchmark: R-MAT graph in a CSR spread over two
// MegaMmap vectors, level-synchronous traversal across ranks, TEPS on the
// virtual clock. The irregular, read-only page touches fault through
// ReadPage and replicate under read-only-global coherence; correctness is
// gated hard — the traversal must match the in-memory reference
// depth-for-depth (bfs_identical).
#include <cstdio>

#include "bench/common.h"
#include "mm/apps/bfs.h"
#include "mm/mega_mmap.h"

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 && argv[1][0] != '-' ? argv[1] : "BENCH_bfs.json";
  const bool csv = mmbench::CsvMode(argc, argv);
  const int reps = mmbench::Reps(argc, argv);

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
      std::fprintf(stderr, "bfs run failed: %s\n", run.error.c_str());
      return 1;
    }
    for (std::size_t v = 0; v < want.size(); ++v) {
      if (result.depth[v] != want[v]) identical = false;
    }
    teps_acc.Add(result.teps);
    sim_s_acc.Add(result.sim_seconds);
    faults_acc.Add(static_cast<double>(result.faults));
  }

  mm::TablePrinter table({"nodes", "scale", "edges", "teps", "sim_s",
                          "faults", "identical"});
  table.AddRow({std::to_string(nodes), std::to_string(rmat.scale),
                std::to_string(csr.cols.size()), mmbench::Fmt(teps_acc.Mean()),
                mmbench::Fmt(sim_s_acc.Mean()),
                mmbench::Fmt(faults_acc.Mean(), 0), identical ? "yes" : "NO"});
  std::printf("%s", table.Render(csv).c_str());

  mmbench::BenchReport report("bfs");
  report.Config("nodes", nodes);
  report.Config("scale", rmat.scale);
  report.Config("edge_factor", rmat.edge_factor);
  report.Config("page_bytes", static_cast<double>(cfg.page_size));
  report.Config("pcache_bytes", static_cast<double>(cfg.pcache_bytes));
  report.Metric("bfs_identical", identical ? 1.0 : 0.0);
  report.Metric("teps", teps_acc.Mean());
  report.Metric("sim_seconds", sim_s_acc.Mean());
  report.Metric("faults", faults_acc.Mean());
  report.Series("teps", teps_acc);
  if (!report.Write(out_path)) return 1;
  return identical ? 0 : 1;
}
