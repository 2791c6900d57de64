// Fault-tolerance experiment (robustness PR): KMeans over a tiered DSM
// while the fault injector exercises the recovery machinery. Three
// configurations of the same single-node run:
//
//   baseline        — no faults;
//   transient       — 10% of NVMe ops fail with kIoError and are absorbed
//                     by retry/backoff (charged to the virtual clock);
//   nvme_death      — the NVMe tier permanently fails mid-run; the scache
//                     degrades to DRAM and the lost clean pages re-stage
//                     from PFS on their next touch.
//
// Reported: mean virtual runtime, recovery overhead vs the baseline, the
// injector's fault counters, and whether the answer stayed byte-identical
// (it must: the dataset is read-only, so no fault can lose dirty state;
// bench/gates.json gates same_answer, data_loss and the single-rank
// virtual runtime_s of every configuration).
#include "bench/common.h"

#include <cstring>

#include "mm/apps/kmeans.h"

using namespace mm;
using namespace mmbench;

namespace {

struct RunStats {
  double runtime_s = 0;
  std::uint64_t transients = 0;
  std::uint64_t spikes = 0;
  std::uint64_t permanents = 0;
  std::size_t data_loss = 0;
  apps::KMeansResult result;
};

bool SameAnswer(const apps::KMeansResult& a, const apps::KMeansResult& b) {
  return a.centroids.size() == b.centroids.size() &&
         std::memcmp(a.centroids.data(), b.centroids.data(),
                     a.centroids.size() * sizeof(apps::Point3)) == 0 &&
         std::memcmp(&a.inertia, &b.inertia, sizeof(double)) == 0;
}

}  // namespace

Report mmbench::FaultTolerance(const Args& args) {
  const int reps = args.reps;
  Report report({"config", "runtime_s", "overhead", "transients", "spikes",
                 "tier_deaths", "data_loss", "same_answer"});
  report.intro =
      "=== Fault tolerance: KMeans under injected NVMe faults ===\n\n";
  BenchDir dir("fault_tolerance");
  std::string key = StageParticles(dir, 60000, 8, 42);

  apps::KMeansConfig cfg;
  cfg.k = 8;
  cfg.max_iter = 6;
  cfg.seed = 5;
  cfg.page_size = 64 * 1024;
  cfg.pcache_bytes = 256 * 1024;

  auto run = [&](const sim::FaultConfig& faults, int max_attempts) {
    RunStats stats;
    StatAccumulator acc;
    for (int r = 0; r < reps; ++r) {
      auto cluster = sim::Cluster::PaperTestbed(1);
      core::ServiceOptions so;
      // A small DRAM slice over a large NVMe slice: most of the ~1.4 MiB
      // dataset lives on NVMe, where the fault plans aim.
      so.tier_grants = {{sim::TierKind::kDram, 256 * 1024},
                        {sim::TierKind::kNvme, MEGABYTES(64)}};
      so.faults = faults;
      so.retry.max_attempts = max_attempts;
      core::Service svc(cluster.get(), so);
      auto result = comm::RunRanks(*cluster, 1, 1, [&](comm::RankContext& ctx) {
        comm::Communicator comm(&ctx);
        stats.result = apps::KMeansMega(svc, comm, key, cfg);
      });
      if (!result.ok()) {
        report.Fail(result.error);
        stats.runtime_s = std::nan("");
        return stats;
      }
      acc.Add(result.max_time);
      stats.transients = svc.fault_injector().transient_faults();
      stats.spikes = svc.fault_injector().latency_spikes();
      stats.permanents = svc.fault_injector().permanent_failures();
      stats.data_loss = svc.data_loss_count();
    }
    stats.runtime_s = acc.Mean();
    return stats;
  };

  sim::FaultConfig none;

  sim::FaultConfig transient;
  transient.seed = 1234;
  transient.tier(sim::TierKind::kNvme).transient_error_rate = 0.10;
  transient.tier(sim::TierKind::kNvme).latency_spike_rate = 0.01;

  sim::FaultConfig death;
  death.tier(sim::TierKind::kNvme).fail_after_ops = 100;

  RunStats base = run(none, 4);
  RunStats flaky = run(transient, 6);
  RunStats dead = run(death, 4);

  // The answer must stay byte-identical and nothing may be lost: the
  // dataset is read-only, so no fault can lose dirty state.
  auto add = [&](const char* name, const RunStats& s) {
    const bool same = SameAnswer(base.result, s.result);
    const double overhead = s.runtime_s / base.runtime_s;
    report.Row(name, {name, s.runtime_s, Cell(Fmt(overhead, 3) + "x", overhead),
                      Cell(s.transients, 0), Cell(s.spikes, 0),
                      Cell(s.permanents, 0), Cell(s.data_loss, 0),
                      Flag(same)});
    if (!same || s.data_loss != 0) {
      report.Fail(std::string(name) + ": answer changed or data lost");
    }
  };
  add("baseline", base);
  add("transient_10pct", flaky);
  add("nvme_death", dead);
  report.outro =
      "\nExpected: both fault configurations finish with the baseline's\n"
      "exact answer. Transient faults cost retries plus backoff on the\n"
      "virtual clock; the tier death costs a degraded steady state\n"
      "(DRAM-only scache) in which each lost page stages back in from\n"
      "the backend on its next touch.\n";
  return report;
}
