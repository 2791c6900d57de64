// Ablation A3 (DESIGN.md): coherence-policy choice (Fig. 3). The same
// multi-reader workload (every rank scans the whole dataset repeatedly)
// runs under read-only-global — which replicates pages near readers and
// skips acquire checks — versus the conservative read-write-global default,
// which must version-check cached pages at every transaction begin and
// serves every miss from the page's single owner.
#include "bench/common.h"

#include "mm/core/vector.h"

using namespace mm;
using namespace mmbench;

int main(int argc, char** argv) {
  bool csv = CsvMode(argc, argv);
  int reps = Reps(argc, argv);
  BenchDir dir("ablation_coherence");
  const std::uint64_t n = 1 << 19;  // 4 MiB of doubles
  std::string key = dir.Key("posix", "shared.bin");
  {
    auto resolved = storage::StagerRegistry::Default().Resolve(key);
    // kAlreadyExists on re-runs is fine; the bench only needs the file.
    (void)resolved->first->Create(resolved->second, n * sizeof(double));
  }

  std::printf("=== Ablation: coherence policy for a shared read-mostly "
              "dataset ===\n\n");
  TablePrinter table({"mode", "runtime_s", "speedup_vs_rw_global"});

  auto run_mode = [&](core::CoherenceMode mode) {
    return MeasureSeconds(reps, [&] {
      auto cluster = sim::Cluster::PaperTestbed(4);
      core::ServiceOptions so;
      so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(64)}};
      core::Service svc(cluster.get(), so);
      return comm::RunRanks(*cluster, 8, 2, [&](comm::RankContext& ctx) {
        comm::Communicator comm(&ctx);
        core::VectorOptions vo;
        vo.page_size = 64 * 1024;
        vo.pcache_bytes = MEGABYTES(1);
        vo.mode = mode;
        Vector<double> v(svc, ctx, key, n, vo);
        v.Pgas(ctx.rank(), ctx.size());
        comm.Barrier();
        // Every rank scans the WHOLE dataset repeatedly (global reads).
        for (int pass = 0; pass < 8; ++pass) {
          auto tx = v.SeqTxBegin(0, n, core::MM_READ_ONLY);
          double sum = 0;
          for (double x : tx) sum += x;
          v.TxEnd();
          comm.Barrier();
        }
      });
    });
  };

  double rw = run_mode(core::CoherenceMode::kReadWriteGlobal);
  double ro = run_mode(core::CoherenceMode::kReadOnlyGlobal);
  table.AddRow({"read_write_global", Fmt(rw), "1.00"});
  table.AddRow({"read_only_global", Fmt(ro), Fmt(rw / ro, 2)});
  std::printf("%s", table.Render(csv).c_str());
  std::printf("\nExpected: read-only-global wins by replicating pages near\n"
              "readers and skipping per-transaction version checks.\n");
  return ExitCode();
}
