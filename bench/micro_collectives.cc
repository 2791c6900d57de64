// Microbenchmark of the tree collectives underlying MegaMmap's coherence
// traffic (§III-C "Collective"): Bcast, AllReduce and AllGatherV at 8 ranks
// (one per node), each with a small (16 doubles) and a large (1 MiB)
// per-rank vector. Two costs per row:
//   * wall µs/op — the simulator's own cost of one collective (message
//     framing, copies, mailbox hand-offs): a timed loop on rank 0 between
//     two barriers, min over --reps runs;
//   * virtual µs/op — the modeled cost: the slowest rank's clock after the
//     first op on a fresh cluster.
//
// Plain executable on the shared BenchReport schema
// (BENCH_micro_collectives.json): one metric per row and column plus a
// wall-clock series across --reps runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "mm/mega_mmap.h"

namespace {

using namespace mm;

constexpr int kRanks = 8;

struct Row {
  const char* op;
  std::size_t doubles;  // per-rank vector length
  int ops;              // timed ops per run
};

/// Runs `row` once on a fresh cluster; returns false if the job failed.
bool RunOnce(const Row& row, double* wall_us_per_op,
             double* virtual_us_per_op) {
  auto cluster = sim::Cluster::PaperTestbed(kRanks);
  std::vector<sim::SimTime> first_op(kRanks, 0.0);
  double wall_ns = 0.0;
  auto result = comm::RunRanks(*cluster, kRanks, 1, [&](comm::RankContext&
                                                            ctx) {
    comm::Communicator comm(&ctx);
    const std::string op = row.op;
    auto run_op = [&] {
      std::vector<double> data;
      if (op != "Bcast" || ctx.rank() == 0) {
        data.assign(row.doubles, 1.0 + ctx.rank());
      }
      if (op == "Bcast") {
        comm.Bcast(data, /*root=*/0);
      } else if (op == "AllReduce") {
        comm.AllReduce(data, [](double a, double b) { return a + b; });
      } else {
        data = comm.AllGatherV(data);
      }
      MM_CHECK(!data.empty());
    };
    run_op();
    first_op[ctx.rank()] = ctx.clock().now();
    comm.Barrier();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < row.ops; ++i) run_op();
    comm.Barrier();
    const auto t1 = std::chrono::steady_clock::now();
    if (ctx.rank() == 0) {
      wall_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    }
  });
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", row.op, result.error.c_str());
    return false;
  }
  *wall_us_per_op = wall_ns / 1e3 / row.ops;
  *virtual_us_per_op =
      *std::max_element(first_op.begin(), first_op.end()) * 1e6;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 && argv[1][0] != '-'
                                   ? argv[1]
                                   : "BENCH_micro_collectives.json";
  const bool csv = mmbench::CsvMode(argc, argv);
  const int reps = mmbench::Reps(argc, argv);

  constexpr std::size_t kLarge = (1u << 20) / sizeof(double);
  const std::vector<Row> rows = {
      {"Bcast", 16, 400},      {"Bcast", kLarge, 20},
      {"AllReduce", 16, 400},  {"AllReduce", kLarge, 20},
      {"AllGatherV", 16, 400}, {"AllGatherV", kLarge, 5},
  };

  mmbench::BenchReport report("micro_collectives");
  report.Config("ranks", kRanks);
  report.Config("reps", reps);
  mm::TablePrinter table(
      {"op", "bytes_per_rank", "wall_us_per_op", "virtual_us_per_op"});
  for (const Row& row : rows) {
    mm::StatAccumulator wall;
    double virtual_us = 0.0;
    for (int r = 0; r < reps; ++r) {
      double wall_us = 0.0;
      if (!RunOnce(row, &wall_us, &virtual_us)) return 1;
      wall.Add(wall_us);
    }
    const std::size_t bytes = row.doubles * sizeof(double);
    const std::string key = std::string(row.op) + "_" + std::to_string(bytes);
    table.AddRow({row.op, std::to_string(bytes), mmbench::Fmt(wall.Min()),
                  mmbench::Fmt(virtual_us)});
    report.Metric(key + "_wall_us_per_op", wall.Min());
    report.Metric(key + "_virtual_us_per_op", virtual_us);
    report.Series(key + "_wall_us", wall);
  }
  std::printf("%s", table.Render(csv).c_str());
  if (!report.Write(out_path)) return 1;
  return 0;
}
