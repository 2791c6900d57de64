// Ablation A4 (DESIGN.md, paper §III-C "Reducing Data Movement Through
// Configurable and Partial Paging"): page-size sweep for a sequential scan
// versus a pseudo-random sample over the same dataset. Big pages amortize
// per-fault costs for sequential access but amplify I/O for sparse random
// access; small pages do the opposite.
#include "bench/common.h"

#include "mm/core/vector.h"

using namespace mm;
using namespace mmbench;

namespace {

volatile double g_keepalive = 0;

double RunScan(const std::string& key, std::uint64_t n,
               std::uint64_t page_size, bool random, int reps) {
  return MeasureSeconds(reps, [&] {
    auto cluster = sim::Cluster::PaperTestbed(2);
    core::ServiceOptions so;
    so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(64)}};
    core::Service svc(cluster.get(), so);
    return comm::RunRanks(*cluster, 4, 2, [&](comm::RankContext& ctx) {
      comm::Communicator comm(&ctx);
      core::VectorOptions vo;
      vo.page_size = page_size;
      // Fixed DRAM budget: bigger pages mean fewer cached pages.
      vo.pcache_bytes = std::max<std::uint64_t>(2 * page_size, MEGABYTES(1));
      vo.mode = core::CoherenceMode::kReadOnlyGlobal;
      Vector<std::uint64_t> v(svc, ctx, key, 0, vo);
      v.Pgas(ctx.rank(), ctx.size());
      std::uint64_t lo = v.local_off(), cnt = v.local_size();
      double sum = 0;
      if (random) {
        // Sparse random sample: ~1 element per 512.
        std::uint64_t samples = cnt / 2048;
        auto tx = v.RandTxBegin(lo, lo + cnt, samples, core::MM_READ_ONLY, 7);
        for (auto it = tx.begin(); it != tx.end(); ++it) sum += *it;
        v.TxEnd();
      } else {
        auto tx = v.SeqTxBegin(lo, cnt, core::MM_READ_ONLY);
        for (std::uint64_t x : tx) sum += static_cast<double>(x);
        v.TxEnd();
      }
      g_keepalive = sum;  // prevent optimizing the loop away
      (void)n;  // element count is implicit in the timed loop
    });
  });
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = CsvMode(argc, argv);
  int reps = Reps(argc, argv);
  BenchDir dir("ablation_pagesize");
  const std::uint64_t n = MEGABYTES(64) / sizeof(std::uint64_t);
  std::string key = dir.Key("posix", "data.bin");
  {
    auto resolved = storage::StagerRegistry::Default().Resolve(key);
    // kAlreadyExists on re-runs is fine; the bench only needs the file.
    (void)resolved->first->Create(resolved->second, n * sizeof(std::uint64_t));
  }

  std::printf("=== Ablation: page-size sweep, sequential vs sparse random "
              "===\n\n");
  TablePrinter table({"page_size", "seq_scan_s", "random_sample_s"});
  for (std::uint64_t page : {std::uint64_t(4) * kKiB, std::uint64_t(16) * kKiB,
                             std::uint64_t(64) * kKiB,
                             std::uint64_t(256) * kKiB,
                             std::uint64_t(1024) * kKiB}) {
    double seq = RunScan(key, n, page, /*random=*/false, reps);
    double rnd = RunScan(key, n, page, /*random=*/true, reps);
    table.AddRow({FormatBytes(page), Fmt(seq), Fmt(rnd)});
  }
  std::printf("%s", table.Render(csv).c_str());
  std::printf("\nExpected: sequential improves with page size (fewer, larger\n"
              "faults); sparse random degrades past a knee (I/O\n"
              "amplification) — the paper's case for per-vector page sizes.\n");
  return ExitCode();
}
