// mm::BTree (DESIGN.md §15): node-layout invariants, single- and
// multi-rank correctness against a std::map oracle (MM_FAULT_SEED sweeps
// the op stream), a TSan-labeled cross-rank reader racing another rank's
// splits and deletes, and a node-death case —
// rank killed mid-split burst, survivors roll back to the epoch checkpoint
// and the tree must come back structurally whole.
#include "mm/index/btree.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <vector>

#include "mm/apps/kvstore.h"
#include "mm/ckpt/collective.h"
#include "mm/ckpt/recovery.h"
#include "mm/comm/communicator.h"
#include "mm/comm/launch.h"
#include "mm/core/service.h"
#include "mm/mega_mmap.h"
#include "mm/sim/cluster.h"
#include "mm/util/hash.h"
#include "mm/util/rng.h"

namespace mm::index {
namespace {

using apps::KvConfig;
using apps::KvRecord;
using apps::MakeRecord;
using sim::TierKind;

std::uint64_t FaultSeed() {
  const char* env = std::getenv("MM_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

core::ServiceOptions SvcOptions() {
  core::ServiceOptions so;
  so.tier_grants = {{TierKind::kDram, MEGABYTES(8)},
                    {TierKind::kNvme, MEGABYTES(64)}};
  return so;
}

// Tiny 256-byte nodes force real depth out of small key counts
// (leaf fanout 14, inner fanout 13 for u64->u64).
using SmallTree = BTree<std::uint64_t, std::uint64_t, 256>;

// ---------------------------------------------------------------------------
// Node layout
// ---------------------------------------------------------------------------

TEST(NodeLayout, CapacitiesAndCommonHeader) {
  using Blk = NodeBlock<std::uint64_t, std::uint64_t, 256>;
  static_assert(sizeof(Blk) == 256);
  using SmallLeaf = LeafNode<std::uint64_t, std::uint64_t, 256>;
  using SmallInner = InnerNode<std::uint64_t, std::uint64_t, 256>;
  EXPECT_GE(SmallLeaf::kCap, 4u);
  EXPECT_GE(SmallInner::kCap, 4u);
  Blk b;
  b.leaf.hdr.level = 0;
  EXPECT_EQ(b.hdr.level, 0u);  // common initial sequence dispatch
  b.inner.hdr.level = 3;
  EXPECT_EQ(b.hdr.level, 3u);
}

TEST(NodeLayout, LowerBoundChildForAndSane) {
  using Blk = NodeBlock<std::uint64_t, std::uint64_t, 256>;
  Blk b;
  b.hdr.level = 1;
  b.hdr.count = 3;
  b.hdr.right = kInvalidNode;
  b.inner.seps[0] = 10;
  b.inner.seps[1] = 20;
  b.inner.seps[2] = 30;
  b.inner.children[0] = 1;
  b.inner.children[1] = 2;
  b.inner.children[2] = 3;
  b.inner.children[3] = 4;
  NodeRef<std::uint64_t, std::uint64_t, 256> r(&b);
  EXPECT_EQ(r.LowerBound(5), 0u);
  EXPECT_EQ(r.LowerBound(10), 0u);
  EXPECT_EQ(r.LowerBound(11), 1u);
  EXPECT_EQ(r.LowerBound(31), 3u);
  EXPECT_EQ(r.ChildFor(5), 1u);
  EXPECT_EQ(r.ChildFor(10), 2u);  // separators are exclusive upper bounds
  EXPECT_EQ(r.ChildFor(25), 3u);
  EXPECT_EQ(r.ChildFor(99), 4u);
  EXPECT_TRUE(r.Sane(1, 100));
  EXPECT_FALSE(r.Sane(0, 100));  // wrong level
  EXPECT_FALSE(r.Sane(1, 4));    // child beyond allocation horizon
  b.inner.seps[1] = 10;          // duplicate separator
  EXPECT_FALSE(r.Sane(1, 100));
  b.inner.seps[1] = 20;
  b.hdr.flags |= NodeHeader::kHasFence;
  b.inner.fence = 30;
  EXPECT_TRUE(r.FenceMiss(30));
  EXPECT_TRUE(r.FenceMiss(31));
  EXPECT_FALSE(r.FenceMiss(29));
}

// ---------------------------------------------------------------------------
// Single-rank structure: splits, ordered scans, deletes
// ---------------------------------------------------------------------------

TEST(BTreeBasic, SplitsScansAndDeletes) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  core::Service svc(cluster.get(), SvcOptions());
  auto run = comm::RunRanks(*cluster, 1, 1, [&](comm::RankContext& ctx) {
    BTreeOptions opt;
    opt.max_nodes = 1 << 16;
    SmallTree tree(svc, ctx, "mem://bt_basic", opt);
    tree.Create();
    constexpr std::uint64_t kN = 2000;  // ~4 levels at fanout 13-14
    for (std::uint64_t i = 0; i < kN; ++i) {
      const std::uint64_t k = MixU64(i);  // random insertion order
      tree.Put(k, k * 2 + 1);
    }
    EXPECT_GT(tree.anchor_snapshot().height, 2u);
    EXPECT_GT(tree.stats().smos, 100u);

    std::uint64_t keys = 0;
    ASSERT_TRUE(tree.CheckIntegrity(&keys).ok());
    EXPECT_EQ(keys, kN);

    for (std::uint64_t i = 0; i < kN; ++i) {
      std::uint64_t v = 0;
      ASSERT_TRUE(tree.Get(MixU64(i), &v)) << i;
      EXPECT_EQ(v, MixU64(i) * 2 + 1);
    }
    EXPECT_FALSE(tree.Get(MixU64(kN + 7) | 1, nullptr));

    // Full scan from 0: every key, strictly sorted.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    EXPECT_EQ(tree.Scan(0, kN + 100, &out), kN);
    ASSERT_EQ(out.size(), kN);
    for (std::size_t i = 1; i < out.size(); ++i) {
      ASSERT_LT(out[i - 1].first, out[i].first);
    }

    // Delete every third key; the rest must survive, in order.
    std::uint64_t deleted = 0;
    for (std::uint64_t i = 0; i < kN; i += 3) {
      ASSERT_TRUE(tree.Delete(MixU64(i)));
      ++deleted;
    }
    EXPECT_FALSE(tree.Delete(MixU64(0)));  // already gone
    ASSERT_TRUE(tree.CheckIntegrity(&keys).ok());
    EXPECT_EQ(keys, kN - deleted);
    out.clear();
    EXPECT_EQ(tree.Scan(0, kN, &out), kN - deleted);
    std::uint64_t lb_key = 0, lb_val = 0;
    ASSERT_TRUE(tree.LowerBound(0, &lb_key, &lb_val));
    EXPECT_EQ(lb_key, out.front().first);
  });
  ASSERT_TRUE(run.ok()) << run.error;
}

// ---------------------------------------------------------------------------
// Property test vs std::map oracle (MM_FAULT_SEED sweeps the op stream)
// ---------------------------------------------------------------------------

TEST(BTreeProperty, MatchesMapOracleUnderSeedSweep) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  core::Service svc(cluster.get(), SvcOptions());
  auto run = comm::RunRanks(*cluster, 1, 1, [&](comm::RankContext& ctx) {
    BTreeOptions opt;
    opt.max_nodes = 1 << 16;
    SmallTree tree(svc, ctx, "mem://bt_prop", opt);
    tree.Create();
    std::map<std::uint64_t, std::uint64_t> oracle;
    Rng rng(FaultSeed());
    for (int op = 0; op < 6000; ++op) {
      const std::uint64_t k = rng.NextBounded(4096);
      switch (rng.NextBounded(4)) {
        case 0:
        case 1: {  // put
          const std::uint64_t v = rng.Next();
          tree.Put(k, v);
          oracle[k] = v;
          break;
        }
        case 2: {  // delete
          EXPECT_EQ(tree.Delete(k), oracle.erase(k) > 0) << "key " << k;
          break;
        }
        case 3: {  // get + short scan
          std::uint64_t v = 0;
          auto it = oracle.find(k);
          ASSERT_EQ(tree.Get(k, &v), it != oracle.end()) << "key " << k;
          if (it != oracle.end()) EXPECT_EQ(v, it->second);
          std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
          tree.Scan(k, 8, &got);
          auto oit = oracle.lower_bound(k);
          for (const auto& [gk, gv] : got) {
            ASSERT_NE(oit, oracle.end());
            EXPECT_EQ(gk, oit->first);
            EXPECT_EQ(gv, oit->second);
            ++oit;
          }
          break;
        }
      }
    }
    // Final state: bit-exact, structurally sound, restart rate in budget.
    std::uint64_t keys = 0;
    ASSERT_TRUE(tree.CheckIntegrity(&keys).ok());
    EXPECT_EQ(keys, oracle.size());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> all;
    tree.Scan(0, oracle.size() + 1, &all);
    ASSERT_EQ(all.size(), oracle.size());
    auto oit = oracle.begin();
    for (const auto& [k, v] : all) {
      EXPECT_EQ(k, oit->first);
      EXPECT_EQ(v, oit->second);
      ++oit;
    }
    const auto& st = tree.stats();
    EXPECT_LT(static_cast<double>(st.restarts),
              0.05 * static_cast<double>(std::max<std::uint64_t>(
                         st.descents, 1)));
  });
  ASSERT_TRUE(run.ok()) << run.error;
}

// The KV workload's DSM run and its std::map replay fold identical op
// outcomes — the acceptance criterion's "bit-exact oracle" stated over the
// whole YCSB-style op stream (run under MM_FAULT_SEED in the flake lane).
TEST(BTreeProperty, KvWorkloadChecksumMatchesReference) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  core::Service svc(cluster.get(), SvcOptions());
  KvConfig cfg;
  cfg.num_keys = 3000;
  cfg.ops_per_rank = 1500;
  cfg.read_frac = 0.5;
  cfg.update_frac = 0.3;
  cfg.scan_frac = 0.15;  // remainder: inserts
  cfg.seed = FaultSeed();
  cfg.key_prefix = "mem://bt_kv_oracle";
  apps::KvResult res;
  auto run = comm::RunRanks(*cluster, 1, 1, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    res = apps::RunKvWorkload(svc, comm, cfg);
  });
  ASSERT_TRUE(run.ok()) << run.error;
  EXPECT_EQ(res.checksum, apps::ReferenceKvChecksum(cfg, 0));
  EXPECT_GT(res.hits, 0u);
  EXPECT_LT(static_cast<double>(res.stats.restarts),
            0.05 * static_cast<double>(
                       std::max<std::uint64_t>(res.stats.descents, 1)));
}

// ---------------------------------------------------------------------------
// Multi-rank coherence: concurrent writers through the SMO lease
// ---------------------------------------------------------------------------

class BTreeRanksTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeRanksTest, CrossRankInsertsAllVisible) {
  const int nodes = GetParam();
  auto cluster = sim::Cluster::PaperTestbed(nodes);
  core::Service svc(cluster.get(), SvcOptions());
  constexpr std::uint64_t kPerRank = 400;
  auto run = comm::RunRanks(*cluster, nodes, 1, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    BTreeOptions opt;
    opt.max_nodes = 1 << 16;
    SmallTree tree(svc, ctx, "mem://bt_ranks", opt);
    if (comm.rank() == 0) tree.Create();
    comm.Barrier();
    tree.Refresh();
    // Interleaved key space: every rank's inserts land in everyone's leaves.
    for (std::uint64_t i = 0; i < kPerRank; ++i) {
      const std::uint64_t k = MixU64(i * comm.size() + comm.rank());
      tree.Put(k, k + comm.rank());
    }
    comm.Barrier();
    tree.Refresh();
    const auto total = kPerRank * static_cast<std::uint64_t>(comm.size());
    std::uint64_t keys = 0;
    ASSERT_TRUE(tree.CheckIntegrity(&keys).ok());
    EXPECT_EQ(keys, total);
    // Every rank reads every other rank's keys through the descent funnel.
    for (std::uint64_t i = 0; i < kPerRank; ++i) {
      for (int r = 0; r < comm.size(); ++r) {
        const std::uint64_t k =
            MixU64(i * comm.size() + static_cast<std::uint64_t>(r));
        std::uint64_t v = 0;
        ASSERT_TRUE(tree.Get(k, &v)) << "rank " << comm.rank() << " key of "
                                     << r;
        EXPECT_EQ(v, k + static_cast<std::uint64_t>(r));
      }
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    EXPECT_EQ(tree.Scan(0, total + 1, &out), total);
    for (std::size_t i = 1; i < out.size(); ++i) {
      ASSERT_LT(out[i - 1].first, out[i].first);
    }
    comm.Barrier();
  });
  ASSERT_TRUE(run.ok()) << run.error;
}

INSTANTIATE_TEST_SUITE_P(RankCounts, BTreeRanksTest, ::testing::Values(2, 4));

// An owner Get over a resident tree charges each read once: the anchor and
// every node on the root-to-leaf path are one Vector::Read apiece, and
// Vector::Read's scalar access charge is the whole cost of a pcache hit.
TEST(BTreeCharge, ResidentGetChargesEachReadOnce) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  core::Service svc(cluster.get(), SvcOptions());
  auto run = comm::RunRanks(*cluster, 1, 1, [&](comm::RankContext& ctx) {
    BTreeOptions opt;
    opt.max_nodes = 1 << 10;
    SmallTree tree(svc, ctx, "mem://bt_charge", opt);
    tree.Create();
    for (std::uint64_t k = 1; k <= 200; ++k) tree.Put(k, k * 10);
    const std::uint64_t height = tree.anchor_snapshot().height;
    ASSERT_GE(height, 2u);
    std::uint64_t v = 0;
    ASSERT_TRUE(tree.Get(77, &v));  // warms the path
    const DescentStats before = tree.stats();
    const double t0 = ctx.clock().now();
    ASSERT_TRUE(tree.Get(77, &v));
    EXPECT_EQ(v, 770u);
    const std::uint64_t reads = tree.stats().node_reads - before.node_reads;
    EXPECT_EQ(reads, height);
    const double access =
        ctx.costs().memory_access_s + ctx.costs().mm_access_overhead_s;
    double expect = t0;
    for (std::uint64_t i = 0; i < reads + 1; ++i) expect += access;
    EXPECT_EQ(ctx.clock().now(), expect);
  });
  ASSERT_TRUE(run.ok()) << run.error;
}

// ---------------------------------------------------------------------------
// TSan stress: a cross-rank reader vs structure modifications
// ---------------------------------------------------------------------------

// Rank 0 inserts every key (continuous splits), then deletes every
// odd-indexed one (leaf churn). Meanwhile rank 1 loops Refresh() and then
// owner Get/Scan on keys rank 0 published before that refresh, so its
// descents meet committed states from the middle of splits and must reach
// every key through the B-link move-right logic. A Get of a published
// even-indexed key (never deleted) must return its exact value, and every
// scan must be strictly sorted with exact values.
TEST(BTreeStress, CrossRankReaderVsSplitAndDelete) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  core::Service svc(cluster.get(), SvcOptions());
  constexpr std::uint64_t kN = 2000;
  std::vector<std::uint64_t> keys(kN);
  for (std::uint64_t i = 0; i < kN; ++i) keys[i] = MixU64(i) | 1;
  auto value_of = [](std::uint64_t k) { return k * 3 + 1; };
  // published: index watermark — keys[0..published) are committed.
  std::atomic<std::uint64_t> published{0};
  std::atomic<bool> done{false};
  std::uint64_t gets = 0, scans = 0, lost = 0, wrong = 0, unsorted = 0;
  auto run = comm::RunRanks(*cluster, 2, 1, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    BTreeOptions opt;
    opt.max_nodes = 1 << 16;
    SmallTree tree(svc, ctx, "mem://bt_stress", opt);
    if (comm.rank() == 0) tree.Create();
    comm.Barrier();
    if (comm.rank() == 0) {
      for (std::uint64_t i = 0; i < kN; ++i) {
        tree.Put(keys[i], value_of(keys[i]));
        // Put committed before the watermark moves.
        published.store(i + 1, std::memory_order_release);
      }
      for (std::uint64_t i = 1; i < kN; i += 2) {
        EXPECT_TRUE(tree.Delete(keys[i]));
      }
      done.store(true, std::memory_order_release);
    } else {
      Rng rng(FaultSeed());
      std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
      bool last = false;
      while (!last) {
        // One more round after rank 0 finishes, so the reader always runs.
        last = done.load(std::memory_order_acquire);
        const std::uint64_t hi = published.load(std::memory_order_acquire);
        tree.Refresh();
        if (hi < 2) continue;
        for (int j = 0; j < 8; ++j) {
          const std::uint64_t k = keys[rng.NextBounded(hi) & ~1ULL];
          std::uint64_t v = 0;
          ++gets;
          if (!tree.Get(k, &v)) {
            ++lost;
          } else if (v != value_of(k)) {
            ++wrong;
          }
        }
        out.clear();
        tree.Scan(rng.Next() | 1, 24, &out);
        ++scans;
        for (std::size_t j = 0; j < out.size(); ++j) {
          if (j > 0 && !(out[j - 1].first < out[j].first)) ++unsorted;
          if (out[j].second != value_of(out[j].first)) ++wrong;
        }
      }
    }
    comm.Barrier();
    tree.Refresh();
    std::uint64_t n = 0;
    EXPECT_TRUE(tree.CheckIntegrity(&n).ok()) << "rank " << comm.rank();
    EXPECT_EQ(n, kN / 2) << "rank " << comm.rank();
    comm.Barrier();
  });
  ASSERT_TRUE(run.ok()) << run.error;
  EXPECT_EQ(lost, 0u) << "published key invisible to the other rank";
  EXPECT_EQ(wrong, 0u) << "cross-rank read returned a wrong value";
  EXPECT_EQ(unsorted, 0u) << "cross-rank scan out of order";
  EXPECT_GT(gets, 0u);
  EXPECT_GT(scans, 0u);
}

// A reader whose anchor predates the first split descends from the old
// root, now the left leaf, and reaches a right-half key through the leaf's
// right link: exactly one lateral move, counted in DescentStats.
TEST(BTreeCrossRank, StaleAnchorReaderFollowsRightLink) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  core::Service svc(cluster.get(), SvcOptions());
  // One more key than a leaf holds: the root leaf splits exactly once.
  constexpr std::uint64_t kKeys = SmallTree::Leaf::kCap + 1;
  auto run = comm::RunRanks(*cluster, 2, 1, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    BTreeOptions opt;
    opt.max_nodes = 1 << 10;
    SmallTree tree(svc, ctx, "mem://bt_stale_anchor", opt);
    if (comm.rank() == 0) tree.Create();
    comm.Barrier();
    // Rank 1 caches the one-leaf anchor and no node.
    if (comm.rank() == 1) EXPECT_EQ(tree.anchor_snapshot().height, 1u);
    comm.Barrier();
    if (comm.rank() == 0) {
      for (std::uint64_t k = 1; k <= kKeys; ++k) tree.Put(k, k * 7);
      EXPECT_EQ(tree.anchor_snapshot().height, 2u);
      EXPECT_EQ(tree.stats().smos, 2u);  // the split and the root growth
    }
    comm.Barrier();
    if (comm.rank() == 1) {
      EXPECT_EQ(tree.anchor_snapshot().height, 1u) << "anchor not stale";
      std::uint64_t v = 0;
      EXPECT_TRUE(tree.Get(kKeys, &v));
      EXPECT_EQ(v, kKeys * 7);
      EXPECT_EQ(tree.stats().lateral_moves, 1u);
      EXPECT_EQ(tree.stats().restarts, 0u);
    }
    comm.Barrier();
  });
  ASSERT_TRUE(run.ok()) << run.error;
}

// ---------------------------------------------------------------------------
// Node death mid-split: rollback to the epoch checkpoint, tree comes back
// structurally whole with exactly the checkpointed contents.
// ---------------------------------------------------------------------------

TEST(BTreeNodeDeath, RollbackRestoresCheckpointedTree) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mm_btree_death_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto cluster = sim::Cluster::PaperTestbed(2);
  core::ServiceOptions so = SvcOptions();
  so.ckpt.dir = (dir / "ckpt").string();
  so.recovery_policy = core::RecoveryPolicy::kRollback;
  core::Service svc(cluster.get(), so);
  constexpr std::uint64_t kPreCkpt = 600;
  auto run = comm::RunRanks(*cluster, 2, 1, [&](comm::RankContext& ctx) {
    comm::Communicator comm(&ctx);
    BTreeOptions opt;
    opt.max_nodes = 1 << 16;
    SmallTree tree(svc, ctx, "mem://bt_death", opt);
    if (comm.rank() == 0) tree.Create();
    comm.Barrier();
    tree.Refresh();
    for (std::uint64_t i = comm.rank(); i < kPreCkpt; i += 2) {
      const std::uint64_t k = MixU64(i) | 1;
      tree.Put(k, k ^ 0xbeef);
    }
    comm.Barrier();
    tree.Refresh();
    auto ck = ckpt::CollectiveCheckpoint(comm, svc, "e1");
    ASSERT_TRUE(ck.ok()) << ck.status().message();

    constexpr std::uint64_t kBurst = 300;
    if (ctx.rank() == 1) {
      // Diverge past the epoch: a burst of split-heavy inserts whose SMO
      // state is un-checkpointed when the rank dies — from the epoch's
      // point of view the tree is mid-split at death, and recovery must
      // reassemble a consistent one from manifest + journal redo.
      for (std::uint64_t i = 0; i < kBurst; ++i) {
        tree.Put(MixU64(0x10000 + i) | 1, i);
      }
      ctx.world().KillRank(1, ctx.clock().now());
      throw comm::RankDeathError(1);
    }
    Status st = comm.BarrierOr();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kPeerDead);
    comm.Revoke();
    auto rec = ckpt::CollectiveRecover(comm, svc, "e1");
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_TRUE(svc.NodeFenced(1));

    // Survivor: the recovered tree is structurally whole — every leaf
    // reachable along the bottom chain, keys globally sorted — with no
    // checkpointed key lost. The dead rank's post-epoch burst survives
    // exactly to the extent its redo records went durable (the journal
    // overlay is a promise kept; DESIGN.md §12/§13), so it is bounded,
    // and Get must agree with the leaf-chain walk key-for-key.
    tree.Refresh();
    std::uint64_t keys = 0;
    ASSERT_TRUE(tree.CheckIntegrity(&keys).ok());
    EXPECT_GE(keys, kPreCkpt);
    EXPECT_LE(keys, kPreCkpt + kBurst);
    for (std::uint64_t i = 0; i < kPreCkpt; ++i) {
      const std::uint64_t k = MixU64(i) | 1;
      std::uint64_t v = 0;
      ASSERT_TRUE(tree.Get(k, &v)) << "checkpointed key " << i;
      EXPECT_EQ(v, k ^ 0xbeef);
    }
    std::uint64_t burst_found = 0;
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      if (tree.Get(MixU64(0x10000 + i) | 1, nullptr)) ++burst_found;
    }
    EXPECT_EQ(keys, kPreCkpt + burst_found);
    EXPECT_EQ(svc.data_loss_count(), 0u);
  });
  ASSERT_TRUE(run.ok()) << run.error;
  EXPECT_EQ(run.dead_ranks, std::vector<int>{1});
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace mm::index
