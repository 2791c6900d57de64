// Fig. 7 reproduction: the DMSH tiering study. Out-of-core Gray-Scott
// (grid bigger than the DRAM grant, checkpointed every step) runs over
// four tier compositions, reported with their dollar cost:
//
//   48D-48H           DRAM + HDD            (baseline, slowest)
//   48D-16N-32S       DRAM + NVMe + SSD
//   48D-32N-16S       DRAM + more NVMe
//   48D-48N           DRAM + NVMe only      (fastest, ~1.8x the baseline)
//
// Paper setup: 16 nodes, L=3456 (1.5 TB grid), plotgap=1, 5 steps, 8 TB
// moved. Here the same compositions scaled by 1/16384 on 4 nodes with an
// L that overflows the DRAM slice every step.
#include "bench/common.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "mm/apps/gray_scott.h"
#include "mm/sim/cost_model.h"

using namespace mm;
using namespace mmbench;

Report mmbench::Fig7Tiering(const Args& args) {
  const int reps = args.reps;
  const int nodes = 4, procs_per_node = 4;
  const double scale = 1.0 / 4096.0;
  auto scaled = [&](std::uint64_t gb) {
    return static_cast<std::uint64_t>(GIGABYTES(gb) * scale);
  };

  struct Composition {
    const char* label;
    std::vector<storage::TierGrant> grants;
  };
  // Every composition exactly fits the working set (the paper's tiers fit
  // the L=3456 dataset); the compositions differ in WHERE the overflow
  // beyond DRAM lands.
  std::vector<Composition> comps = {
      {"48D-48H",
       {{sim::TierKind::kDram, scaled(48)},
        {sim::TierKind::kHdd, scaled(48)}}},
      {"48D-16N-32S",
       {{sim::TierKind::kDram, scaled(48)},
        {sim::TierKind::kNvme, scaled(16)},
        {sim::TierKind::kSsd, scaled(32)}}},
      {"48D-32N-16S",
       {{sim::TierKind::kDram, scaled(48)},
        {sim::TierKind::kNvme, scaled(32)},
        {sim::TierKind::kSsd, scaled(16)}}},
      {"48D-48N",
       {{sim::TierKind::kDram, scaled(48)},
        {sim::TierKind::kNvme, scaled(48)}}},
  };

  apps::GrayScottConfig cfg;
  // Grid/node ~= 2x the DRAM slice: half the working set overflows into
  // the storage tiers every step (the paper's 96 GB grid over 48 GB DRAM).
  cfg.L = 144;
  cfg.steps = 5;
  cfg.plotgap = 1;  // flush every step, like the paper's 8 TB campaign
  cfg.page_size = 1024 * 1024;
  cfg.pcache_bytes = 3 * 1024 * 1024;

  Report report({"composition", "runtime_s", "speedup_vs_48D-48H",
                 "storage_cost_$per_node_unscaled"});
  report.intro = Format(
      "=== Fig. 7: DMSH tiering study (Gray-Scott, plotgap=1) ===\n"
      "(%d nodes, device sizes scaled 1/4096, %d reps; cost uses\n"
      " the paper's $/GB: HDD 0.02, SSD 0.04, NVMe 0.08)\n\n",
      nodes, reps);
  report.Config("nodes", nodes);
  report.Config("reps", reps);
  report.Config("grid_L", double(cfg.L));
  report.Config("scale", scale);

  double baseline = 0;
  for (const Composition& comp : comps) {
    BenchDir dir(std::string("fig7_") + comp.label);
    std::string out_key = dir.Key("shdf", "gs.h5");
    double t = MeasureSeconds(report, reps, [&] {
      auto cluster = sim::Cluster::PaperTestbed(nodes, scale);
      core::ServiceOptions so;
      so.tier_grants = comp.grants;
      core::Service svc(cluster.get(), so);
      apps::GrayScottConfig run_cfg = cfg;
      run_cfg.out_key = out_key;
      return comm::RunRanks(*cluster, nodes * procs_per_node, procs_per_node,
                            [&](comm::RankContext& ctx) {
                              comm::Communicator comm(&ctx);
                              apps::GrayScottMega(svc, comm, run_cfg);
                            });
    });
    if (baseline == 0) baseline = t;
    // Dollar cost of the storage (non-DRAM) granted per node, reported at
    // the paper's unscaled sizes.
    double dollars = 0;
    for (const auto& grant : comp.grants) {
      if (grant.kind == sim::TierKind::kDram) continue;
      auto spec = sim::DeviceSpec::ForKind(grant.kind, grant.capacity);
      dollars += sim::DollarsForCapacity(
          spec, static_cast<std::uint64_t>(grant.capacity / scale));
    }
    report.Row(comp.label,
               {comp.label, t, Cell(baseline / t, 2), Cell(dollars, 2)});
  }

  // Critical-path attribution run (untimed, all-NVMe composition):
  // per-step epoch reports carry a "critpath" breakdown of the measured
  // stall into queue/network/device/coherence. Coverage per epoch is
  //   (compute + max(stall, attributed)) / (compute + stall)
  // so it is exactly 1.0 when the attribution fits inside the measured
  // stall and > 1.0 on over-attribution; check_perf.py gates max <= 1.05.
  {
    BenchDir dir("fig7_critpath");
    std::string report_path = (dir.path() / "epochs.jsonl").string();
    auto cluster = sim::Cluster::PaperTestbed(nodes, scale);
    core::ServiceOptions so;
    so.tier_grants = comps.back().grants;  // 48D-48N
    so.telemetry.report_path = report_path;
    // Tiny positive interval: one epoch per Gray-Scott step (<= 0 would
    // disable MaybeEpochReport entirely).
    so.telemetry.report_interval_s = 1e-9;
    so.telemetry.trace_path = (dir.path() / "trace.json").string();
    so.telemetry.trace_capacity = 1 << 18;
    {
      core::Service svc(cluster.get(), so);
      apps::GrayScottConfig run_cfg = cfg;
      run_cfg.out_key = dir.Key("shdf", "gs.h5");
      comm::RunRanks(
          *cluster, nodes * procs_per_node, procs_per_node,
          [&](comm::RankContext& ctx) {
            if (ctx.rank() == 0) {
              // Bridge the rank clocks' compute/stall totals (owned by the
              // World) and the flow spans into the service-side analyzer.
              comm::World* world = &ctx.world();
              world->set_trace(&svc.trace());
              svc.SetCritpathWallSource(
                  [world] { return world->CritpathTotals(); });
            }
            comm::Communicator comm(&ctx);
            // No rank proceeds (and so no epoch reports) until the rank-0
            // wiring above is visible.
            comm.Barrier();
            apps::GrayScottMega(svc, comm, run_cfg);
          });
      // The World dies with RunRanks; drop the callback into it before the
      // service's shutdown-time epoch report would call it.
      svc.SetCritpathWallSource(nullptr);
    }
    double cov_min = std::numeric_limits<double>::infinity();
    double cov_max = 0.0;
    int cov_epochs = 0;
    auto ns_field = [](const std::string& l, const char* key) -> double {
      auto p = l.find(key);
      if (p == std::string::npos) return 0.0;
      return std::atof(l.c_str() + p + std::strlen(key));
    };
    double queue_ns = 0, net_ns = 0, dev_ns = 0, coh_ns = 0, other_ns = 0;
    std::ifstream in(report_path);
    std::string line;
    while (std::getline(in, line)) {
      auto pos = line.find("\"coverage\":");
      if (pos == std::string::npos) continue;
      double cov = std::atof(line.c_str() + pos + 11);
      cov_min = std::min(cov_min, cov);
      cov_max = std::max(cov_max, cov);
      ++cov_epochs;
      queue_ns += ns_field(line, "\"queue_wait_ns\":");
      net_ns += ns_field(line, "\"network_ns\":");
      dev_ns += ns_field(line, "\"device_ns\":");
      coh_ns += ns_field(line, "\"coherence_ns\":");
      other_ns += ns_field(line, "\"other_stall_ns\":");
    }
    if (cov_epochs == 0) cov_min = 0.0;
    report.Metric("critpath_epochs", Cell(cov_epochs, 0));
    report.Metric("critpath_coverage_min", cov_min);
    report.Metric("critpath_coverage_max", cov_max);
    report.Metric("critpath_attributed_ms",
                  Cell((queue_ns + net_ns + dev_ns + coh_ns) / 1e6, 2));
    // The attributed stall by cause.
    report.Metric("critpath_queue_ms", Cell(queue_ns / 1e6, 2));
    report.Metric("critpath_network_ms", Cell(net_ns / 1e6, 2));
    report.Metric("critpath_device_ms", Cell(dev_ns / 1e6, 2));
    report.Metric("critpath_coherence_ms", Cell(coh_ns / 1e6, 2));
    report.Metric("critpath_other_ms", Cell(other_ns / 1e6, 2));
  }

  report.outro =
      "\nExpected shape: HDD-only overflow slowest; adding NVMe/SSD\n"
      "improves ~1.5x; all-NVMe ~1.8x; cost tracks performance.\n";
  return report;
}
