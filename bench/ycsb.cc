// YCSB-style benchmark for mm::BTree (DESIGN.md §15): A/B/C mixes with
// zipfian key popularity over a tree whose node arena is deliberately
// starved of pcache (cache ≪ data), across 2-4 simulated nodes.
//
// Virtual-clock numbers (throughput, per-op p50/p99/p999) report the
// modeled cost of a descent, whose every node read is a Vector::Read. Each
// mix runs once; the wall p99 Get latency is reported, not gated: the
// ledger's btree_get row prices a Get against a floor instead. So are
// lease_wait_s, the virtual time writers waited for the SMO lease over all
// three mixes, and lease_skew_share, the part of it spent behind a hold
// that starts later than the waiting request (sim::ChannelWait).
//
// Gates (bench/gates.json "ycsb"): scans in exact sorted order,
// std::map-oracle checksum bit-exact across 3 seeds, descent restart
// rate < 5%.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "mm/apps/kvstore.h"
#include "mm/comm/communicator.h"
#include "mm/comm/launch.h"
#include "mm/index/btree.h"
#include "mm/mega_mmap.h"
#include "mm/util/hash.h"

namespace {

using mm::MixU64;
using mm::apps::KvRecord;
using mm::apps::KvTree;
using mm::apps::MakeRecord;
using mm::apps::ZipfianGenerator;

constexpr std::uint64_t kNumKeys = 20000;  // ~2.2 MB of leaves at 100 B values
constexpr std::uint64_t kOpsPerRank = 6000;
constexpr std::uint64_t kWarmupOps = 200;   // untimed wall-clock warm-up
constexpr std::uint64_t kScanLen = 16;
constexpr std::uint64_t kCacheNodes = 64;   // pcache ≪ data: 256 KB vs 2.2 MB
constexpr double kZipfTheta = 0.99;

struct MixSpec {
  const char* name;
  double read, update, scan;
  int nodes;
};

struct MixResult {
  std::vector<double> get_sim_s;
  std::vector<double> get_wall_ns;
  std::uint64_t ops = 0;
  std::uint64_t scan_items = 0;
  std::uint64_t unsorted_scans = 0;
  std::uint64_t descents = 0;
  std::uint64_t restarts = 0;
  double sim_seconds = 0.0;
  mm::sim::ChannelWait lease_wait;  // the tree's SMO lease (all ranks)
};

// One full mix measurement; false if the job failed.
bool RunMix(const MixSpec& mix, mmbench::Report& report, MixResult* out) {
  auto cluster = mm::sim::Cluster::PaperTestbed(mix.nodes);
  mm::core::ServiceOptions so;
  so.tier_grants = {{mm::sim::TierKind::kDram, mm::MEGABYTES(64)},
                    {mm::sim::TierKind::kNvme, mm::MEGABYTES(256)}};
  mm::core::Service svc(cluster.get(), so);

  std::vector<MixResult> per_rank(mix.nodes);
  auto run = mm::comm::RunRanks(
      *cluster, mix.nodes, 1, [&](mm::comm::RankContext& ctx) {
        mm::comm::Communicator comm(&ctx);
        mm::index::BTreeOptions opt;
        opt.max_nodes = 1 << 16;
        opt.cache_bytes = kCacheNodes * 4096;
        KvTree tree(svc, ctx, std::string("mem://ycsb_") + mix.name, opt);
        if (comm.rank() == 0) tree.Create();
        comm.Barrier();
        tree.Refresh();
        const auto nranks = static_cast<std::uint64_t>(comm.size());
        for (std::uint64_t i = comm.rank(); i < kNumKeys; i += nranks) {
          const std::uint64_t key = MixU64(i + 1);
          tree.Put(key, MakeRecord(key, 0));
        }
        comm.Barrier();
        tree.Refresh();

        MixResult& mine = per_rank[comm.rank()];
        const mm::index::DescentStats before = tree.stats();
        ZipfianGenerator zipf(kNumKeys, kZipfTheta,
                              mm::HashCombine(7, comm.rank()));
        mm::Rng op_rng(mm::HashCombine(11, comm.rank()));
        std::vector<std::pair<std::uint64_t, KvRecord>> scan_buf;
        const double sim_start = ctx.clock().now();
        for (std::uint64_t op = 0; op < kWarmupOps + kOpsPerRank; ++op) {
          const bool timed = op >= kWarmupOps;
          const std::uint64_t key = MixU64(zipf.Next() + 1);
          const double u = op_rng.NextDouble();
          const double t0 = ctx.clock().now();
          if (u < mix.read) {
            KvRecord rec{};
            const auto w0 = std::chrono::steady_clock::now();
            // Zipf-drawn keys are all loaded, and latency is the measurement.
            (void)tree.Get(key, &rec);
            const auto w1 = std::chrono::steady_clock::now();
            if (timed) {
              mine.get_sim_s.push_back(ctx.clock().now() - t0);
              mine.get_wall_ns.push_back(
                  std::chrono::duration<double, std::nano>(w1 - w0).count());
            }
          } else if (u < mix.read + mix.update) {
            tree.Put(key, MakeRecord(key, op + 1));
          } else {
            scan_buf.clear();
            const std::uint64_t got = tree.Scan(key, kScanLen, &scan_buf);
            if (timed) {
              mine.scan_items += got;
              for (std::size_t i = 1; i < scan_buf.size(); ++i) {
                if (!(scan_buf[i - 1].first < scan_buf[i].first)) {
                  ++mine.unsorted_scans;
                  break;
                }
              }
            }
          }
          if (timed) ++mine.ops;
        }
        mine.sim_seconds = ctx.clock().now() - sim_start;
        const mm::index::DescentStats after = tree.stats();
        mine.descents = after.descents - before.descents;
        mine.restarts = after.restarts - before.restarts;
        comm.Barrier();
      });
  if (!run.ok()) {
    report.Fail(std::string("ycsb ") + mix.name + ": " + run.error);
    return false;
  }

  MixResult& total = *out;
  total.lease_wait = svc.lease_wait();
  for (MixResult& r : per_rank) {
    auto app = [](std::vector<double>& dst, const std::vector<double>& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    app(total.get_sim_s, r.get_sim_s);
    app(total.get_wall_ns, r.get_wall_ns);
    total.ops += r.ops;
    total.scan_items += r.scan_items;
    total.unsorted_scans += r.unsorted_scans;
    total.descents += r.descents;
    total.restarts += r.restarts;
    total.sim_seconds = std::max(total.sim_seconds, r.sim_seconds);
  }
  return true;
}

// std::map-oracle property check: the apps driver's DSM run must fold the
// exact same op outcomes as its single-threaded std::map replay, for each
// fault seed the flake lane sweeps.
bool OracleIdentical(std::uint64_t seed) {
  auto cluster = mm::sim::Cluster::PaperTestbed(1);
  mm::core::ServiceOptions so;
  so.tier_grants = {{mm::sim::TierKind::kDram, mm::MEGABYTES(64)},
                    {mm::sim::TierKind::kNvme, mm::MEGABYTES(256)}};
  mm::core::Service svc(cluster.get(), so);
  mm::apps::KvConfig cfg;
  cfg.num_keys = 3000;
  cfg.ops_per_rank = 1500;
  cfg.read_frac = 0.5;
  cfg.update_frac = 0.3;
  cfg.scan_frac = 0.15;
  cfg.seed = seed;
  cfg.key_prefix = "mem://ycsb_oracle_" + std::to_string(seed);
  mm::apps::KvResult res;
  auto run = mm::comm::RunRanks(*cluster, 1, 1,
                                [&](mm::comm::RankContext& ctx) {
                                  mm::comm::Communicator comm(&ctx);
                                  res = mm::apps::RunKvWorkload(svc, comm, cfg);
                                });
  if (!run.ok()) {
    std::fprintf(stderr, "oracle seed %llu: %s\n",
                 static_cast<unsigned long long>(seed), run.error.c_str());
    std::exit(1);
  }
  return res.checksum == mm::apps::ReferenceKvChecksum(cfg, 0);
}

}  // namespace

mmbench::Report mmbench::Ycsb(const Args&) {
  Report report({"mix", "nodes", "ops", "kops_per_sim_s", "get_p50_us",
                 "get_p99_us", "get_p999_us"});

  // YCSB-A update-heavy, -B read-heavy, -C read-only-plus-scans.
  const MixSpec mix_a{"A", 0.50, 0.50, 0.00, 2};
  const MixSpec mix_b{"B", 0.95, 0.05, 0.00, 2};
  const MixSpec mix_c{"C", 0.95, 0.00, 0.05, 4};

  MixResult a, b, c;
  if (!RunMix(mix_a, report, &a) || !RunMix(mix_b, report, &b) ||
      !RunMix(mix_c, report, &c)) {
    return report;
  }

  mm::StatAccumulator b_wall, c_wall;
  for (double v : b.get_wall_ns) b_wall.Add(v);
  for (double v : c.get_wall_ns) c_wall.Add(v);

  const std::uint64_t unsorted =
      a.unsorted_scans + b.unsorted_scans + c.unsorted_scans;
  const double scan_sorted = unsorted == 0 ? 1.0 : 0.0;

  bool oracle_ok = true;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    oracle_ok = OracleIdentical(seed) && oracle_ok;
  }
  const double oracle_identical = oracle_ok ? 1.0 : 0.0;

  const std::uint64_t descents = a.descents + b.descents + c.descents;
  const std::uint64_t restarts = a.restarts + b.restarts + c.restarts;
  const double restart_rate =
      descents > 0
          ? static_cast<double>(restarts) / static_cast<double>(descents)
          : 0.0;

  auto add_row = [&](const char* name, const MixSpec& m, MixResult& r) {
    mm::StatAccumulator acc;
    for (double v : r.get_sim_s) acc.Add(v);
    const double kops =
        r.sim_seconds > 0 ? r.ops / r.sim_seconds / 1e3 : 0.0;
    report.Row(name, {name, Cell(m.nodes, 0), Cell(double(r.ops), 0),
                      Cell(kops, 1), Cell(acc.Percentile(50) * 1e6, 2),
                      Cell(acc.Percentile(99) * 1e6, 2),
                      Cell(acc.Percentile(99.9) * 1e6, 2)});
  };
  add_row("A", mix_a, a);
  add_row("B", mix_b, b);
  add_row("C", mix_c, c);

  report.Config("num_keys", static_cast<double>(kNumKeys));
  report.Config("ops_per_rank", static_cast<double>(kOpsPerRank));
  report.Config("cache_nodes", static_cast<double>(kCacheNodes));
  report.Config("zipf_theta", kZipfTheta);
  report.Config("scan_len", static_cast<double>(kScanLen));
  report.Metric("scan_sorted", Cell(scan_sorted, 0));
  report.Metric("oracle_identical", Cell(oracle_identical, 0));
  report.Metric("restart_rate", restart_rate);
  report.Metric("descents", Cell(double(descents), 0));
  report.Metric("scans", Cell(double(c.scan_items), 0));
  report.Metric("c_get_p99_wall_ns", Cell(c_wall.Percentile(99), 0));
  report.Metric("b_get_p99_wall_ns", Cell(b_wall.Percentile(99), 0));
  mm::sim::ChannelWait lease = a.lease_wait;
  lease += b.lease_wait;
  lease += c.lease_wait;
  report.Metric("lease_wait_s", lease.wait_s);
  report.Metric("lease_skew_share",
                lease.wait_s > 0 ? lease.skew_s / lease.wait_s : 0.0);
  return report;
}
