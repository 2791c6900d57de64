// Ablation A2 (DESIGN.md): the transaction-informed prefetcher under
// memory pressure. KMeans runs with a pcache far smaller than its
// partition; with prefetching the sequential transactions pipeline the
// page fetches behind compute (this is the mechanism behind Fig. 8's flat
// region), without it every page is a synchronous fault. Coverage is the
// share of pcache misses a prefetch served (mm.prefetch.useful_count over
// mm.pcache.miss_count): unlike useful/issued it exposes a prefetcher that
// fetches too little. Staged is mm.prefetch.staged_count per repetition:
// the pages staged in from the backend ahead of their fetch.
#include "bench/common.h"

#include "mm/apps/kmeans.h"

using namespace mm;
using namespace mmbench;

int main(int argc, char** argv) {
  bool csv = CsvMode(argc, argv);
  int reps = Reps(argc, argv);
  BenchDir dir("ablation_prefetch");
  std::string key = StageParticles(dir, 160000, 8, 42);

  std::printf("=== Ablation: prefetcher on/off under memory pressure ===\n\n");
  TablePrinter table(
      {"prefetch", "pcache_frac", "runtime_s", "slowdown_vs_prefetch",
       "coverage", "staged"});

  apps::KMeansConfig cfg;
  cfg.k = 8;
  cfg.max_iter = 6;
  cfg.page_size = 64 * 1024;
  std::uint64_t partition_bytes = 160000 * sizeof(apps::Particle) / 8;

  for (double frac : {0.5, 0.25, 0.125}) {
    cfg.pcache_bytes = std::max<std::uint64_t>(
        2 * cfg.page_size,
        static_cast<std::uint64_t>(partition_bytes * frac));
    double with = 0;
    for (bool prefetch : {true, false}) {
      std::uint64_t useful = 0, misses = 0, staged = 0;
      double t = MeasureSeconds(reps, [&] {
        auto cluster = sim::Cluster::PaperTestbed(2);
        core::ServiceOptions so;
        so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(64)}};
        so.enable_prefetch = prefetch;
        core::Service svc(cluster.get(), so);
        auto result =
            comm::RunRanks(*cluster, 8, 4, [&](comm::RankContext& ctx) {
              comm::Communicator comm(&ctx);
              apps::KMeansMega(svc, comm, key, cfg);
            });
        auto counters = svc.TelemetrySnapshot().totals.counters;
        useful += counters["mm.prefetch.useful_count"];
        misses += counters["mm.pcache.miss_count"];
        staged += counters["mm.prefetch.staged_count"];
        return result;
      });
      if (prefetch) with = t;
      // Blank when telemetry is compiled out (no misses counted).
      const std::string coverage =
          misses > 0 ? Fmt(static_cast<double>(useful) / misses, 3) : "";
      table.AddRow({prefetch ? "on" : "off", Fmt(frac, 3), Fmt(t),
                    Fmt(t / with, 2), coverage,
                    std::to_string(staged / std::max(reps, 1))});
    }
  }
  std::printf("%s", table.Render(csv).c_str());
  std::printf("\nExpected: prefetch-off degrades as the pcache shrinks;\n"
              "prefetch-on stays close to flat (Algorithm 1 pipelines the\n"
              "sequential window).\n");
  return ExitCode();
}
