// Per-layer cost ledger: one row per step of an access, priced on both
// clocks.
//
// Every row has three cells:
//   virtual_ns   the modeled cost, read from the rank clock on the first
//                repetition. It is a pure function of the config, so
//                ci/check_perf.py gates it exactly;
//   wall_ns      the simulator's own cost on this machine, best repetition;
//   floor_ratio  wall over a floor timed beside it in the same run, median
//                over repetitions: a raw loop of the same shape for access
//                rows, a page memcpy for eviction and fault rows, and a
//                mailbox ping of the same payload for collective rows. The
//                ratio, not wall_ns, is what a gate can compare across
//                machines.
//
// Rows, each priced per unit (element, eviction, fault or collective op):
//   read, read_span            scalar Vector::Read and ReadSpan over a
//                              resident vector (4-way accumulators);
//   rmw_tx, write_span         scalar read-modify-write and the WriteSpan
//                              multiply, each under a transaction;
//   read_traced,               the first two with the trace recorder
//   read_span_traced           runtime-enabled;
//   evict_64, evict_512        a sweep over 10x the pcache, so every fault
//                              evicts one of 64 or 512 resident frames;
//   fault_*                    a page faulted from local scache DRAM, a
//                              remote node's scache, the NVMe and HDD
//                              tiers, and a backend stage-in (2 nodes);
//   flush_journaled,           one Vector::Flush of 64 contiguous 64 KiB
//   flush_unjournaled          pages split over 2 owner nodes, with and
//                              without a redo journal (priced per flush);
//   btree_get                  BTree::Get over a warmed 1-node tree with the
//                              default 64-node pcache;
//   lease                      an uncontended DistributedLock Acquire +
//                              Release from node 1 on a lock homed on node 0;
//   bcast_*, allreduce_*,      8-rank collectives at 16 doubles and 1 MiB
//   allgatherv_*               per rank (one rank per node).
//
// Three invariants ride along as plain metrics: eviction_cost_flatness,
// task_allocs_per_op and telemetry_overhead_ns.
//
// The access rows always time kAccessPasses passes; --reps (default 3)
// repeats the eviction, fault and collective rows.
//
// Usage: mmbench ledger [OUT.json] [--reps N] [--csv] [--trace FILE].
// Writes BENCH_ledger.json by default; CI gates it with bench/gates.json.
// --trace first runs an untimed 2-node job whose remote faults after a
// write commit each record one causal flow (origin -> remote get_page ->
// stager), plus one async flush over both owners, and writes its trace to
// FILE.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "mm/apps/kvstore.h"
#include "mm/mega_mmap.h"
#include "mm/util/hash.h"

namespace {

using namespace mm;

volatile double g_sink = 0;

/// The one timer: wall nanoseconds of one call of `body`.
template <typename F>
double WallNs(F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// One ledger row, every cell per unit.
struct Row {
  explicit Row(std::string row_name) : name(std::move(row_name)) {}

  std::string name;
  double virtual_ns = -1;
  mm::StatAccumulator wall;   // ns per unit, one sample per repetition
  mm::StatAccumulator ratio;  // each sample over the floor timed beside it

  void Add(double virt, double wall_ns, double floor_ns) {
    if (virtual_ns < 0) virtual_ns = virt;
    wall.Add(wall_ns);
    ratio.Add(wall_ns / floor_ns);
  }
  double wall_ns() const { return wall.Min(); }
  double floor_ratio() const { return ratio.Percentile(50); }
};

/// The single-rank world the access and eviction rows share.
struct OneRank {
  explicit OneRank(std::uint64_t dram_bytes) {
    cluster = sim::Cluster::PaperTestbed(1);
    core::ServiceOptions so;
    so.tier_grants = {{sim::TierKind::kDram, dram_bytes}};
    so.enable_prefetch = false;
    service = std::make_unique<core::Service>(cluster.get(), so);
    world = std::make_unique<comm::World>(cluster.get(), 1, 1);
    ctx = std::make_unique<comm::RankContext>(world.get(), 0);
  }

  /// A volatile vector of `n` doubles, written once so every page exists.
  std::unique_ptr<Vector<double>> Filled(const std::string& name,
                                         std::uint64_t n,
                                         core::VectorOptions vo) {
    vo.nonvolatile = false;
    auto vec = std::make_unique<Vector<double>>(*service, *ctx, name, n, vo);
    auto tx = vec->SeqTxBegin(0, n, core::MM_WRITE_ONLY);
    const std::uint64_t chunk = vec->MaxSpanElems();
    for (std::uint64_t b = 0; b < n; b += chunk) {
      const std::uint64_t e = std::min(n, b + chunk);
      auto span = vec->WriteSpan(b, e);
      for (std::uint64_t i = b; i < e; ++i) span[i] = double(i);
    }
    vec->TxEnd();
    return vec;
  }

  /// Wall ns of `body`; adds the rank clock's advance in ns to `*virt`.
  template <typename F>
  double Time(F&& body, double* virt) {
    const double t0 = ctx->clock().now();
    const double wall = WallNs(body);
    *virt += (ctx->clock().now() - t0) * 1e9;
    return wall;
  }

  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<core::Service> service;
  std::unique_ptr<comm::World> world;
  std::unique_ptr<comm::RankContext> ctx;
};

/// Wall ns to copy `pages` pages of `bytes` each: the floor of every row
/// that moves a page.
double PageCopyNs(std::uint64_t bytes, std::uint64_t pages) {
  std::vector<char> src(bytes, 1), dst(bytes);
  return WallNs([&] {
    for (std::uint64_t p = 0; p < pages; ++p) {
      std::memcpy(dst.data(), src.data(), bytes);
      src[p % bytes] = dst[(p * 7) % bytes];
    }
  });
}

// ---- access and telemetry rows ----

constexpr std::uint64_t kAccessElems = 1 << 20;
constexpr std::uint64_t kBlocks = 64;
constexpr std::uint64_t kBlockElems = kAccessElems / kBlocks;
constexpr int kAccessPasses = 11;

/// A loop over elements [lo, hi) of the access vector.
using BlockLoop = std::function<void(std::uint64_t lo, std::uint64_t hi)>;

/// An access row's loop, the raw loop that is its floor, and whether it
/// is also timed with the trace recorder on.
struct AccessLoop {
  BlockLoop body;
  BlockLoop floor;
  bool paired = false;
};

/// One sweep's cost per element: the loop with the trace recorder off
/// ([0]) and on ([1]), and its floor.
struct Sweep {
  double wall_ns[2] = {0, 0};
  double virtual_ns[2] = {0, 0};
  double floor_ns = 0;
};

/// Sweeps `loop` over the whole access vector block by block, timing the
/// floor over the same index range right before each block, so load on
/// the machine falls on both alike. A paired loop sweeps twice with the trace recorder
/// toggled per block, off-on-on-off and then on-off-off-on, so each mode
/// covers every element once.
Sweep RunSweep(OneRank& env, const AccessLoop& loop) {
  telemetry::TraceRecorder& trace = env.service->trace();
  const int sweeps = loop.paired ? 2 : 1;
  Sweep s;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      const std::uint64_t lo = b * kBlockElems, hi = lo + kBlockElems;
      const int on =
          loop.paired && ((b % 4 == 1 || b % 4 == 2) != (sweep == 1));
      s.floor_ns += WallNs([&] { loop.floor(lo, hi); });
      trace.set_enabled(on);
      s.wall_ns[on] += env.Time([&] { loop.body(lo, hi); }, &s.virtual_ns[on]);
      trace.set_enabled(false);
    }
  }
  const double n = double(kAccessElems);
  for (int on = 0; on < 2; ++on) {
    s.wall_ns[on] /= n;
    s.virtual_ns[on] /= n;
  }
  s.floor_ns /= n * sweeps;
  return s;
}

/// The access rows plus telemetry_overhead_ns: the worst median per-pass
/// cost that runtime-enabled tracing adds to either read path. The hooks
/// sit at frame resolution, so this must be noise.
void MeasureAccess(std::vector<Row>* rows, double* telemetry_overhead_ns) {
  OneRank env(MEGABYTES(256));
  core::VectorOptions vo;
  vo.pcache_bytes = MEGABYTES(64);
  auto vec = env.Filled("ledger_access", kAccessElems, vo);
  // The floors: raw loops of the same shape over a std::vector of the same
  // size. Scalar Read is compute-bound, and its floor adds one relaxed
  // atomic add per element, which is what the per-access clock charge
  // cost when the floor was chosen; a floor without it tracked Read's wall
  // time across runs with a spread 2-4x wider (EXPERIMENTS.md). The charge
  // is now a plain load and store to the rank's own slot, cheaper than
  // this floor's add.
  // Span reads stream memory, so their floor is the plain sum; the
  // multiply rows' floor scales the array in place.
  std::vector<double> raw(kAccessElems);
  for (std::uint64_t i = 0; i < raw.size(); ++i) raw[i] = double(i);
  std::atomic<std::uint64_t> charges{0};
  const double scale = 1.0000001;
  auto sum4 = [](auto&& at, std::uint64_t lo, std::uint64_t hi) {
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::uint64_t i = lo; i + 4 <= hi; i += 4) {
      s0 += at(i);
      s1 += at(i + 1);
      s2 += at(i + 2);
      s3 += at(i + 3);
    }
    g_sink = g_sink + s0 + s1 + s2 + s3;
  };
  const BlockLoop floor_charged = [&](std::uint64_t lo, std::uint64_t hi) {
    sum4(
        [&](std::uint64_t i) {
          charges.fetch_add(1, std::memory_order_relaxed);
          return raw[i];
        },
        lo, hi);
  };
  const BlockLoop floor_sum = [&](std::uint64_t lo, std::uint64_t hi) {
    sum4([&](std::uint64_t i) { return raw[i]; }, lo, hi);
  };
  const BlockLoop floor_mul = [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) raw[i] *= scale;
    g_sink = raw[lo];
  };

  const BlockLoop read = [&](std::uint64_t lo, std::uint64_t hi) {
    sum4([&](std::uint64_t i) { return vec->Read(i); }, lo, hi);
  };
  const BlockLoop read_span = [&](std::uint64_t lo, std::uint64_t hi) {
    auto span = vec->ReadSpan(lo, hi);
    sum4([&](std::uint64_t i) { return span[i]; }, lo, hi);
  };
  const BlockLoop rmw_tx = [&](std::uint64_t lo, std::uint64_t hi) {
    auto tx = vec->SeqTxBegin(lo, hi, core::MM_READ_WRITE);
    for (std::uint64_t i = lo; i < hi; ++i) (*vec)[i] *= scale;
    vec->TxEnd();
  };
  const BlockLoop write_span = [&](std::uint64_t lo, std::uint64_t hi) {
    auto tx = vec->SeqTxBegin(lo, hi, core::MM_READ_WRITE);
    {
      auto span = vec->WriteSpan(lo, hi);
      for (std::uint64_t i = lo; i < hi; ++i) span[i] *= scale;
    }
    vec->TxEnd();
  };
  const std::vector<AccessLoop> loops = {
      {read, floor_charged, /*paired=*/true},
      {read_span, floor_sum, /*paired=*/true},
      {rmw_tx, floor_mul, /*paired=*/false},
      {write_span, floor_mul, /*paired=*/false},
  };
  std::vector<std::vector<Sweep>> sweeps(loops.size());
  for (int pass = 0; pass < kAccessPasses; ++pass) {
    for (std::size_t j = 0; j < loops.size(); ++j) {
      sweeps[j].push_back(RunSweep(env, loops[j]));
    }
  }
  auto row = [&](const char* name, std::size_t j, int on) {
    Row r(name);
    for (const Sweep& s : sweeps[j]) {
      r.Add(sweeps[j][0].virtual_ns[on], s.wall_ns[on], s.floor_ns);
    }
    rows->push_back(std::move(r));
  };
  row("read", 0, 0);
  row("read_span", 1, 0);
  row("rmw_tx", 2, 0);
  row("write_span", 3, 0);
  row("read_traced", 0, 1);
  row("read_span_traced", 1, 1);

  *telemetry_overhead_ns = 0;
  for (std::size_t j : {0, 1}) {
    mm::StatAccumulator delta;
    for (const Sweep& s : sweeps[j]) delta.Add(s.wall_ns[1] - s.wall_ns[0]);
    *telemetry_overhead_ns =
        std::max(*telemetry_overhead_ns, delta.Percentile(50));
  }
}

// ---- eviction rows ----

/// A sequential sweep over 10x the pcache, so every fault evicts one of
/// `frames` resident frames.
struct EvictSweep {
  static constexpr std::uint64_t kPage = 4096;

  explicit EvictSweep(std::uint64_t frames)
      : env(MEGABYTES(512)),
        pages(frames * 10),
        n(pages * (kPage / sizeof(double))),
        row("evict_" + std::to_string(frames)) {
    core::VectorOptions vo;
    vo.page_size = kPage;
    vo.pcache_bytes = frames * kPage;
    vec = env.Filled(row.name, n, vo);
    allocs0 = env.service->runtime(0).pool().allocations();
    faults0 = vec->faults();
  }

  /// One pass; returns its wall ns per eviction.
  double Pass() {
    const std::uint64_t ev0 = vec->evictions();
    double virt = 0;
    const double wall = env.Time(
        [&] {
          double sum = 0;
          auto tx = vec->SeqTxBegin(0, n, core::MM_READ_ONLY);
          const std::uint64_t chunk = vec->MaxSpanElems();
          for (std::uint64_t b = 0; b < n; b += chunk) {
            const std::uint64_t e = std::min(n, b + chunk);
            auto span = vec->ReadSpan(b, e);
            for (std::uint64_t i = b; i < e; ++i) sum += span[i];
          }
          vec->TxEnd();
          g_sink = g_sink + sum;
        },
        &virt);
    const double ev = double(vec->evictions() - ev0);
    row.Add(virt / ev, wall / ev, PageCopyNs(kPage, pages) / double(pages));
    return wall / ev;
  }

  double AllocsPerFault() const {
    const std::uint64_t faults = vec->faults() - faults0;
    const std::uint64_t allocs =
        env.service->runtime(0).pool().allocations() - allocs0;
    return faults > 0 ? double(allocs) / double(faults) : 0;
  }

  OneRank env;
  std::uint64_t pages, n;
  Row row;
  std::unique_ptr<Vector<double>> vec;
  std::uint64_t allocs0 = 0, faults0 = 0;
};

// ---- fault rows ----

/// Where the pages rank 0 faults live.
struct FaultSource {
  const char* name;
  std::vector<storage::TierGrant> grants;
  bool remote_owner;
  bool from_backend;
};

constexpr std::uint64_t kFaultPage = 64 * 1024;

/// Rank 0 faults one element per page from `src` on a fresh 2-node
/// cluster; returns false if the job failed, recorded in `report`.
bool FaultOnce(const FaultSource& src, const std::string& dir, Row* row,
               mmbench::Report& report) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  core::ServiceOptions so;
  so.tier_grants = src.grants;
  so.enable_prefetch = false;
  so.enable_organizer = false;
  core::Service svc(cluster.get(), so);
  const std::uint64_t n = 64 * kFaultPage / sizeof(double);
  const std::string key = src.from_backend
                              ? "posix://" + dir + "/fault_bench.bin"
                              : std::string("fault_bench_volatile");
  core::VectorOptions vo;
  vo.page_size = kFaultPage;
  vo.pcache_bytes = 4 * kFaultPage;  // tiny: almost every page faults
  vo.nonvolatile = src.from_backend;
  if (src.from_backend) {
    auto resolved = storage::StagerRegistry::Default().Resolve(key);
    if (!resolved->first->Exists(resolved->second)) {
      // Exists() was just checked; creation races are not a bench concern.
      (void)resolved->first->Create(resolved->second, n * sizeof(double));
    }
  }
  auto result = comm::RunRanks(*cluster, 2, 1, [&](comm::RankContext& ctx) {
    Vector<double> v(svc, ctx, key, n, vo);
    comm::Communicator comm(&ctx);
    if (!src.from_backend) {
      // Standard PGAS split: each rank materializes its own half, so the
      // lower half of the pages lives on node 0 and the upper half on
      // node 1; rank 0 then faults whichever half the source asks for.
      v.Pgas(ctx.rank(), 2);
      auto tx = v.SeqTxBegin(v.local_off(), v.local_off() + v.local_size(),
                             core::MM_WRITE_ONLY);
      for (std::uint64_t i = v.local_off();
           i < v.local_off() + v.local_size(); ++i) {
        v[i] = 1.0;
      }
      v.TxEnd();
    }
    comm.Barrier();
    if (ctx.rank() != 0) return;
    // A backend source pages the whole vector in by stage-in.
    const std::uint64_t pages = src.from_backend ? 64 : 32;
    const std::uint64_t first =
        (!src.from_backend && src.remote_owner) ? 32 : 0;
    const std::uint64_t epp = kFaultPage / sizeof(double);
    const double t0 = ctx.clock().now();
    const double wall = WallNs([&] {
      for (std::uint64_t p = first; p < first + pages; ++p) {
        g_sink = v.Read(p * epp);
      }
    });
    const double virt = (ctx.clock().now() - t0) * 1e9;
    row->Add(virt / double(pages), wall / double(pages),
             PageCopyNs(kFaultPage, pages) / double(pages));
  });
  if (!result.ok()) {
    report.Fail(std::string(src.name) + ": " + result.error);
    return false;
  }
  return true;
}

// ---- flush rows ----

constexpr std::uint64_t kFlushPages = 64;

/// Rank 0 flushes a Pgas-split nonvolatile vector of kFlushPages pages
/// (each rank dirtied its half) on a fresh 2-node cluster, journaled when
/// `journaled`; returns false if the job failed, recorded in `report`. The
/// floor copies the flushed pages once.
bool FlushOnce(bool journaled, const std::string& dir, Row* row,
               mmbench::Report& report) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);
  auto cluster = sim::Cluster::PaperTestbed(2);
  core::ServiceOptions so;
  so.tier_grants = {{sim::TierKind::kDram, GIGABYTES(1)}};
  so.enable_prefetch = false;
  so.enable_organizer = false;
  if (journaled) so.ckpt.dir = dir + "/ckpt";
  core::Service svc(cluster.get(), so);
  const std::uint64_t n = kFlushPages * kFaultPage / sizeof(double);
  core::VectorOptions vo;
  vo.page_size = kFaultPage;
  vo.nonvolatile = true;
  auto result = comm::RunRanks(*cluster, 2, 1, [&](comm::RankContext& ctx) {
    Vector<double> v(svc, ctx, "posix://" + dir + "/flush_bench.bin", n, vo);
    comm::Communicator comm(&ctx);
    v.Pgas(ctx.rank(), 2);
    auto tx = v.SeqTxBegin(v.local_off(), v.local_off() + v.local_size(),
                           core::MM_WRITE_ONLY);
    for (std::uint64_t i = v.local_off(); i < v.local_off() + v.local_size();
         ++i) {
      v[i] = double(i);
    }
    v.TxEnd();
    comm.Barrier();
    if (ctx.rank() == 0) {
      const double t0 = ctx.clock().now();
      const double wall = WallNs([&] { v.Flush(); });
      row->Add((ctx.clock().now() - t0) * 1e9, wall,
               PageCopyNs(kFaultPage, kFlushPages));
    }
    comm.Barrier();
  });
  if (!result.ok()) {
    report.Fail(row->name + ": " + result.error);
    return false;
  }
  return true;
}

// ---- index row ----

constexpr std::uint64_t kTreeKeys = 4000;  // ~120 leaves at 100 B values

/// One repetition of btree_get: a 1-node world loads kTreeKeys records
/// into a tree with the default 64-node pcache and warms it with one pass
/// of Gets; the timed pass looks every key up again, in a permuted order.
void BTreeGetOnce(Row* row) {
  OneRank env(MEGABYTES(64));
  index::BTreeOptions opt;
  opt.max_nodes = 1 << 12;
  apps::KvTree tree(*env.service, *env.ctx, "mem://ledger_btree", opt);
  tree.Create();
  for (std::uint64_t i = 0; i < kTreeKeys; ++i) {
    const std::uint64_t key = MixU64(i + 1);
    tree.Put(key, apps::MakeRecord(key, 0));
  }
  tree.Refresh();
  auto get_all = [&] {
    apps::KvRecord rec{};
    for (std::uint64_t i = 0; i < kTreeKeys; ++i) {
      MM_CHECK(tree.Get(MixU64((i * 7919) % kTreeKeys + 1), &rec));
    }
    g_sink = g_sink + rec.payload[0];
  };
  get_all();
  double virt = 0;
  const double wall = env.Time(get_all, &virt);
  const double n = double(kTreeKeys);
  row->Add(virt / n, wall / n, PageCopyNs(4096, kTreeKeys) / n);
}

// ---- lease row ----

constexpr int kLeaseOps = 20000;

/// One repetition of lease: rank 1 of a 2-node world takes and drops a lock
/// homed on node 0, uncontended. virtual_ns is the first pair's clock
/// advance; the floor is an uncontended mm::Mutex lock and unlock, the real
/// exclusion every lease pays.
void LeaseOnce(Row* row) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  comm::World world(cluster.get(), 2, 1);
  comm::RankContext ctx(&world, 1);
  comm::DistributedLock lock(cluster.get(), /*home_node=*/0);
  auto lease = [&] {
    lock.Acquire(ctx);
    lock.Release(ctx);
  };
  const double t0 = ctx.clock().now();
  lease();
  const double virt = (ctx.clock().now() - t0) * 1e9;
  const double wall = WallNs([&] {
    for (int i = 0; i < kLeaseOps; ++i) lease();
  });
  Mutex mu;
  const double floor = WallNs([&] {
    for (int i = 0; i < kLeaseOps; ++i) {
      mu.Lock();
      mu.Unlock();
    }
  });
  row->Add(virt, wall / kLeaseOps, floor / kLeaseOps);
}

// ---- trace ----

/// Writes the trace of an untimed 2-node job to `path`: four pages are
/// committed on node 1, then faulted from node 0, so each read is one
/// origin -> remote get_page -> stager flow. Then one async flush
/// (Vector::FlushAsync's path) of a backed vector with a dirty page on each
/// node: one flow of an async origin, a stage_out hop per owner and a
/// terminal hop.
void EmitTrace(const std::string& path) {
  constexpr std::uint64_t kPageBytes = 4096, kPages = 64;
  const mmbench::BenchDir dir("ledger_trace");
  auto cluster = sim::Cluster::PaperTestbed(2);
  core::ServiceOptions so;
  so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(64)},
                    {sim::TierKind::kNvme, MEGABYTES(256)}};
  so.telemetry.trace_path = path;
  {
    core::Service svc(cluster.get(), so);
    core::VectorOptions vo;
    vo.nonvolatile = false;
    vo.page_size = kPageBytes;
    const std::uint64_t elems = kPages * kPageBytes / 8;
    auto meta = svc.RegisterVector("ledger_trace", 8, vo, elems);
    core::VectorOptions backed_vo = vo;
    backed_vo.nonvolatile = true;
    auto backed = svc.RegisterVector(dir.Key("posix", "flush.bin"), 8,
                                     backed_vo, elems);
    if (!meta.ok() || !backed.ok()) {
      std::fprintf(stderr, "RegisterVector failed\n");
      std::exit(1);
    }
    svc.SetPgasHint(**meta, {elems, /*nprocs=*/2, /*ranks_per_node=*/1});
    svc.SetPgasHint(**backed, {elems, /*nprocs=*/2, /*ranks_per_node=*/1});
    sim::SimTime t = 0.0;
    for (std::uint64_t p = kPages / 2; p < kPages / 2 + 4; ++p) {
      std::vector<std::uint8_t> bytes(kPageBytes, 0x5a);
      auto out = svc.WriteRegion(**meta, p, 0, std::move(bytes),
                                 /*from_node=*/1, t);
      t = std::max(t, out.done);
    }
    for (std::uint64_t p = kPages / 2; p < kPages / 2 + 4; ++p) {
      // Only the emitted fault flows matter; the data is checked elsewhere.
      (void)svc.ReadPage(**meta, p, /*from_node=*/0, t, &t);
    }
    for (const std::size_t node : {0, 1}) {
      auto out = svc.WriteRegion(**backed, node * kPages / 2, 0,
                                 std::vector<std::uint8_t>(kPageBytes, 0xa5),
                                 node, t);
      t = std::max(t, out.done);
    }
    MM_CHECK(svc.FlushVector(**backed, /*from_node=*/0, t, /*done=*/nullptr)
                 .ok());
    // The Service destructor writes the trace.
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

// ---- collective rows ----

struct Collective {
  const char* name;
  const char* op;
  std::size_t doubles;  // per-rank vector length
  int ops;              // timed ops per repetition
};

constexpr int kRanks = 8;

/// One repetition of `c` on a fresh 8-node cluster. virtual_ns is the
/// slowest rank's clock after the first op; wall is rank 0's time per op
/// between two barriers; the floor is a ping-pong of the same payload
/// between ranks 0 and 1 of the same world.
bool CollectiveOnce(const Collective& c, Row* row, mmbench::Report& report) {
  auto cluster = sim::Cluster::PaperTestbed(kRanks);
  std::vector<sim::SimTime> first_op(kRanks, 0.0);
  double wall = 0, ping = 0;
  auto body = [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    const std::string op = c.op;
    auto run_op = [&] {
      std::vector<double> data;
      if (op != "Bcast" || ctx.rank() == 0) {
        data.assign(c.doubles, 1.0 + ctx.rank());
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
    const double w = WallNs([&] {
      for (int i = 0; i < c.ops; ++i) run_op();
      comm.Barrier();
    });
    constexpr int kPingTag = 7;
    const std::vector<double> payload(c.doubles, 1.0);
    const double p = WallNs([&] {
      for (int i = 0; i < c.ops; ++i) {
        if (ctx.rank() == 0) {
          comm.Send(1, kPingTag, payload);
          MM_CHECK(!comm.Recv<double>(1, kPingTag).empty());
        } else if (ctx.rank() == 1) {
          comm.Send(0, kPingTag, comm.Recv<double>(0, kPingTag));
        }
      }
    });
    comm.Barrier();
    if (ctx.rank() == 0) {
      wall = w;
      ping = p;
    }
  };
  const comm::RunResult result = comm::RunRanks(*cluster, kRanks, 1, body);
  if (!result.ok()) {
    report.Fail(std::string(c.name) + ": " + result.error);
    return false;
  }
  row->Add(*std::max_element(first_op.begin(), first_op.end()) * 1e9,
           wall / c.ops, ping / c.ops);
  return true;
}

}  // namespace

mmbench::Report mmbench::Ledger(const Args& args) {
  const int reps = args.reps;
  Report report({"row", "virtual_ns", "wall_ns", "floor_ratio"});
  if (!args.trace_path.empty()) EmitTrace(args.trace_path);

  std::vector<Row> rows;
  double telemetry_overhead_ns = 0;
  MeasureAccess(&rows, &telemetry_overhead_ns);

  // The two sweeps alternate passes, and flatness is the median of the
  // per-pass ratios: an 8x resident-frame spread at fixed pressure must
  // keep the per-eviction cost flat (a full-scan victim search would
  // push this toward 8).
  EvictSweep small(64), large(512);
  mm::StatAccumulator flatness;
  for (int r = 0; r < reps; ++r) {
    const double s = small.Pass();
    flatness.Add(large.Pass() / s);
  }
  const double task_allocs_per_op = large.AllocsPerFault();
  rows.push_back(small.row);
  rows.push_back(large.row);

  const mmbench::BenchDir dir("ledger");
  const std::vector<FaultSource> sources = {
      {"fault_local_dram",
       {{sim::TierKind::kDram, GIGABYTES(1)}},
       false,
       false},
      {"fault_remote_dram",
       {{sim::TierKind::kDram, GIGABYTES(1)}},
       true,
       false},
      {"fault_nvme",
       {{sim::TierKind::kDram, 2 * kFaultPage},
        {sim::TierKind::kNvme, GIGABYTES(1)}},
       false,
       false},
      {"fault_hdd",
       {{sim::TierKind::kDram, 2 * kFaultPage},
        {sim::TierKind::kHdd, GIGABYTES(1)}},
       false,
       false},
      {"fault_stage_in",
       {{sim::TierKind::kDram, GIGABYTES(1)}},
       false,
       true},
  };
  for (const FaultSource& src : sources) {
    Row row(src.name);
    for (int r = 0; r < reps; ++r) {
      if (!FaultOnce(src, dir.path().string(), &row, report)) return report;
    }
    rows.push_back(std::move(row));
  }
  for (const bool journaled : {true, false}) {
    Row row(journaled ? "flush_journaled" : "flush_unjournaled");
    for (int r = 0; r < reps; ++r) {
      if (!FlushOnce(journaled, (dir.path() / row.name).string(), &row,
                     report)) {
        return report;
      }
    }
    rows.push_back(std::move(row));
  }
  Row btree_get("btree_get");
  for (int r = 0; r < reps; ++r) BTreeGetOnce(&btree_get);
  rows.push_back(std::move(btree_get));
  Row lease("lease");
  for (int r = 0; r < reps; ++r) LeaseOnce(&lease);
  rows.push_back(std::move(lease));

  constexpr std::size_t kLarge = (1u << 20) / sizeof(double);
  const std::vector<Collective> collectives = {
      {"bcast_16", "Bcast", 16, 400},
      {"bcast_1mib", "Bcast", kLarge, 20},
      {"allreduce_16", "AllReduce", 16, 400},
      {"allreduce_1mib", "AllReduce", kLarge, 20},
      {"allgatherv_16", "AllGatherV", 16, 400},
      {"allgatherv_1mib", "AllGatherV", kLarge, 5},
  };
  for (const Collective& c : collectives) {
    Row row(c.name);
    for (int r = 0; r < reps; ++r) {
      if (!CollectiveOnce(c, &row, report)) return report;
    }
    rows.push_back(std::move(row));
  }

  report.Config("access_elements", double(kAccessElems));
  report.Config("access_passes", kAccessPasses);
  report.Config("reps", reps);
  for (const Row& r : rows) {
    report.Row(r.name, {r.name, r.virtual_ns, r.wall_ns(), r.floor_ratio()});
  }
  report.Metric("eviction_cost_flatness", Cell(flatness.Percentile(50), 3));
  report.Metric("task_allocs_per_op", Cell(task_allocs_per_op, 4));
  report.Metric("telemetry_overhead_ns", Cell(telemetry_overhead_ns, 3));
  return report;
}
