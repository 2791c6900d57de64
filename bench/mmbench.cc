// mmbench: runs one bench, prints its report as a table (CSV with
// --csv) and writes it to OUT.json (default BENCH_NAME.json) for
// ci/check_perf.py. Exits 1 when a repetition failed, 2 on a bad command
// line.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/common.h"

namespace {

using namespace mmbench;

const struct {
  const char* name;
  Report (*run)(const Args&);
} kBenches[] = {
    {"ablation_coherence", AblationCoherence},
    {"ablation_pagesize", AblationPagesize},
    {"ablation_prefetch", AblationPrefetch},
    {"bfs", Bfs},
    {"ckpt_recovery", CkptRecovery},
    {"fault_tolerance", FaultTolerance},
    {"fig4_loc", Fig4Loc},
    {"fig5_weak_scaling", Fig5WeakScaling},
    {"fig6_resolution", Fig6Resolution},
    {"fig7_tiering", Fig7Tiering},
    {"fig8_mem_scaling", Fig8MemScaling},
    {"ledger", Ledger},
    {"node_failure", NodeFailure},
    {"ycsb", Ycsb},
};

int Usage() {
  std::fprintf(stderr,
               "usage: mmbench NAME [OUT.json] [--reps N (default 3)] [--csv] "
               "[--trace FILE (ledger only)]\nNAME is one of:");
  for (const auto& b : kBenches) std::fprintf(stderr, " %s", b.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool csv = false;
  std::string name, out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      csv = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      args.reps = std::atoi(argv[++i]);
    } else if (arg == "--trace" && i + 1 < argc) {
      args.trace_path = argv[++i];
    } else if (arg[0] == '-' || !out_path.empty()) {
      return Usage();
    } else if (name.empty()) {
      name = arg;
    } else {
      out_path = arg;
    }
  }
  for (const auto& b : kBenches) {
    if (name != b.name) continue;
    if (!args.trace_path.empty() && name != "ledger") break;
    const Report report = b.run(args);
    std::fputs(report.Render(csv).c_str(), stdout);
    std::fflush(stdout);
    if (!report.WriteJson(name, out_path.empty() ? "BENCH_" + name + ".json"
                                                 : out_path)) {
      return 1;
    }
    return report.failed() > 0 ? 1 : 0;
  }
  return Usage();
}
