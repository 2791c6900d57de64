// mm::BTree — a distributed ordered index over the DSM (DESIGN.md §15).
//
// A fixed-fanout B-link tree whose nodes live one-per-page in a DSM node
// arena (`mm::Vector<NodeBlock>`), so every coherence, caching, and
// recovery property of the page layer carries over to the index:
//
//   reads    root-to-leaf descents over node snapshots. The owner reads
//            every node and the anchor with `Vector::Read`, so a miss is
//            the page layer's one fault path (`Service::ReadPage`) and the
//            pcache's LRU decides which nodes stay resident. Fence keys +
//            right-sibling links make any committed snapshot a valid
//            starting point: keys that split away are found by moving
//            right, and structurally insane snapshots trigger a bounded
//            restart.
//   writes   Put/Delete/splits run under the SMO write lease: the
//            per-rank `smo_mu_` (annotated, in the MM_ACQUIRED_BEFORE
//            hierarchy so mm-verify MML101 checks its order) nested around
//            the cross-rank `DistributedLock`. The lease holder refreshes
//            coherence (stale clean pages dropped), mutates node pages
//            through `Vector::Set` and publishes level-by-level: a split
//            commits the new sibling and the shrunk+linked old node BEFORE
//            the parent separator, so other ranks' readers only ever see
//            B-link-consistent states.
//
// Thread-affinity follows mm::Vector: a BTree instance belongs to one
// rank; other ranks construct their own handle with the same name, and
// they are the only concurrent readers.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mm/comm/dlock.h"
#include "mm/comm/world.h"
#include "mm/core/service.h"
#include "mm/core/vector.h"
#include "mm/index/node.h"
#include "mm/util/mutex.h"

namespace mm::index {

struct BTreeOptions {
  /// Arena capacity in nodes (== pages). Backing pages materialize lazily,
  /// so a generous ceiling costs nothing until allocated.
  std::uint64_t max_nodes = 1ull << 20;
  /// Per-rank pcache budget for the node arena; 0 = 64 nodes.
  std::uint64_t cache_bytes = 0;
  /// Descent restarts (insane snapshot, fence-chase overrun) before a
  /// descent gives up.
  int max_restarts = 8;
  /// Lateral (right-sibling) hops tolerated within one descent.
  int max_lateral = 64;
  /// Home node of the cross-rank SMO lease.
  std::size_t lock_home = 0;
};

/// Descent statistics. Every node read is a `Vector::Read` and counts as a
/// queue fallback; `pcache_hits` and `scache_probes` stay 0.
struct DescentStats {
  std::uint64_t descents = 0;
  std::uint64_t node_reads = 0;
  std::uint64_t pcache_hits = 0;
  std::uint64_t scache_probes = 0;
  std::uint64_t queue_fallbacks = 0;
  std::uint64_t restarts = 0;
  std::uint64_t lateral_moves = 0;
  std::uint64_t smos = 0;
};

/// Non-template holder of the per-rank structure-modification lock, so the
/// lock has a fixed `Class::field` identity for mm-verify's hierarchy
/// (MML101) regardless of the tree's instantiation.
class BTreeBase {
 protected:
  /// Serializes this rank's mutating entry points (Put/Delete/Create)
  /// against each other; held across the cross-rank lease and the page
  /// layer, hence ordered before everything the write path can take.
  mutable Mutex smo_mu_ MM_ACQUIRED_BEFORE(comm::DistributedLock::mu_,
                                           core::Service::vectors_mu_,
                                           core::Service::inflight_mu_,
                                           core::NodeRuntime::exec_mu_);
};

template <class K, class V, std::size_t Bytes = 4096>
class BTree : public BTreeBase {
 public:
  using Block = NodeBlock<K, V, Bytes>;
  using Ref = NodeRef<K, V, Bytes>;
  using Leaf = LeafNode<K, V, Bytes>;
  using Inner = InnerNode<K, V, Bytes>;

  BTree(core::Service& service, comm::RankContext& ctx,
        const std::string& name, BTreeOptions opt = {})
      : ctx_(&ctx),
        opt_(opt),
        name_(name),
        arena_(service, ctx, name + "/nodes", opt.max_nodes,
               ArenaOptions(opt)),
        anchor_(service, ctx, name + "/anchor", 1, AnchorOptions()),
        // Every rank's handle leases the SAME service-registered lock
        // object: the real mutex inside it is the cross-rank exclusion.
        smo_lease_(&service.GetDistributedLock(name + "/smo_lock",
                                               opt.lock_home)),
        descent_count_(service.telemetry_sink(ctx.node())
                           .metrics->GetCounter("mm.index.descent_count")) {}

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// One rank initializes the shared tree (empty root leaf + anchor) before
  /// first use; everyone barriers after. Idempotent under the lease.
  void Create() {
    MutexLock lock(smo_mu_);
    comm::DistributedLock::Guard lease(*smo_lease_, *ctx_);
    WriterTx wtx(this);
    TreeAnchor a = anchor_.Read(0);
    if (a.height != 0) {
      wtx.Finish();
      return;  // another rank won the race under an earlier lease
    }
    Block root{};
    root.hdr.level = 0;
    root.hdr.count = 0;
    root.hdr.right = kInvalidNode;
    WriteNode(0, root);
    a.root = 0;
    a.height = 1;
    a.next_node = 1;
    a.smo_epoch = 1;
    anchor_.Set(0, a);
    wtx.Finish();
  }

  /// Sync-point coherence acquire: drops stale clean node/anchor pages so
  /// this rank's next descents observe other ranks' committed updates.
  /// (Descents are correct without it — any committed snapshot reaches all
  /// keys through right links — this just shortens the lateral chains.)
  void Refresh() {
    anchor_.SeqTxBegin(0, 1, core::MM_READ_ONLY);
    anchor_.TxEnd();
    arena_.SeqTxBegin(0, arena_.size(), core::MM_READ_ONLY);
    arena_.TxEnd();
  }

  /// Publishes this rank's uncommitted modifications (Vector::Commit on
  /// arena then anchor). Mutating entry points already publish before
  /// releasing the lease; this is for explicit sync points.
  void Commit() {
    arena_.Commit();
    anchor_.Commit();
  }

  // ---- owner-thread operations ----

  /// Point lookup: a descent with bounded restarts.
  bool Get(const K& k, V* out) {
    descent_count_->Inc();
    ++stats_.descents;
    TreeAnchor a = anchor_.Read(0);
    if (a.height == 0) return false;
    Block blk;
    DescendOwner(k, a, &blk);
    Ref r(&blk);
    std::uint32_t i = r.LowerBound(k);
    if (i < r.count() && !(k < r.key(i))) {
      if (out != nullptr) *out = r.value(i);
      return true;
    }
    return false;
  }

  /// First key >= k, with its value. Returns false past the last key.
  bool LowerBound(const K& k, K* key_out, V* val_out) {
    std::vector<std::pair<K, V>> one;
    if (Scan(k, 1, &one) == 0) return false;
    if (key_out != nullptr) *key_out = one[0].first;
    if (val_out != nullptr) *val_out = one[0].second;
    return true;
  }

  /// Insert or update. Runs under the SMO write lease; splits propagate
  /// bottom-up with a commit barrier per level (children published before
  /// the parent names them).
  void Put(const K& k, const V& v) {
    MutexLock lock(smo_mu_);
    comm::DistributedLock::Guard lease(*smo_lease_, *ctx_);
    WriterTx wtx(this);
    TreeAnchor a = anchor_.Read(0);
    MM_CHECK_MSG(a.height != 0, "BTree::Put before Create()");
    std::vector<std::uint64_t> path;
    Block blk;
    DescendForWrite(k, a, &blk, &path);
    const std::uint64_t leaf_id = path.back();

    Ref r(&blk);
    std::uint32_t i = r.LowerBound(k);
    if (i < blk.hdr.count && !(k < blk.leaf.keys[i])) {
      blk.leaf.vals[i] = v;  // in-place update, single-page atomic publish
      WriteNode(leaf_id, blk);
      wtx.Finish();
      return;
    }
    if (blk.hdr.count < Leaf::kCap) {
      InsertLeafSlot(&blk, i, k, v);
      WriteNode(leaf_id, blk);
      wtx.Finish();
      return;
    }
    SplitAndInsert(&a, path, blk, k, v);
    anchor_.Set(0, a);
    wtx.Finish();
  }

  /// Removes k if present. Leaves are shrunk in place — no merging or
  /// rebalancing (underfull leaves persist; §15 documents the trade).
  bool Delete(const K& k) {
    MutexLock lock(smo_mu_);
    comm::DistributedLock::Guard lease(*smo_lease_, *ctx_);
    WriterTx wtx(this);
    TreeAnchor a = anchor_.Read(0);
    MM_CHECK_MSG(a.height != 0, "BTree::Delete before Create()");
    std::vector<std::uint64_t> path;
    Block blk;
    DescendForWrite(k, a, &blk, &path);
    Ref r(&blk);
    std::uint32_t i = r.LowerBound(k);
    if (i >= blk.hdr.count || k < blk.leaf.keys[i]) {
      wtx.Finish();
      return false;
    }
    for (std::uint32_t j = i; j + 1 < blk.hdr.count; ++j) {
      blk.leaf.keys[j] = blk.leaf.keys[j + 1];
      blk.leaf.vals[j] = blk.leaf.vals[j + 1];
    }
    --blk.hdr.count;
    WriteNode(path.back(), blk);
    wtx.Finish();
    return true;
  }

  /// Ordered range scan: up to `limit` pairs with key >= from, appended to
  /// *out in strictly increasing key order. Returns the number appended.
  /// Strictness is enforced across leaf hops (a concurrent split can
  /// present a key twice — once in the old leaf, once right of it).
  std::uint64_t Scan(const K& from, std::uint64_t limit,
                     std::vector<std::pair<K, V>>* out) {
    descent_count_->Inc();
    ++stats_.descents;
    TreeAnchor a = anchor_.Read(0);
    if (a.height == 0 || limit == 0) return 0;
    Block blk;
    DescendOwner(from, a, &blk);
    std::uint64_t emitted = 0;
    K last{};
    int hops = 0;
    while (emitted < limit) {
      Ref r(&blk);
      for (std::uint32_t i = r.LowerBound(from); i < r.count(); ++i) {
        const K& key = r.key(i);
        if (emitted > 0 && !(last < key)) continue;  // split replay
        out->emplace_back(key, r.value(i));
        last = key;
        if (++emitted >= limit) break;
      }
      if (emitted >= limit || r.right() == kInvalidNode) break;
      if (++hops > static_cast<int>(opt_.max_nodes)) break;  // cycle guard
      ReadNodeOwner(r.right(), &blk);
    }
    return emitted;
  }

  // ---- introspection ----

  /// Structural integrity walk (owner thread): every leaf reachable along
  /// the bottom chain, keys strictly sorted globally, levels consistent.
  /// Used by the node-death test after CollectiveRecover.
  Status CheckIntegrity(std::uint64_t* keys_out = nullptr) {
    TreeAnchor a = anchor_.Read(0);
    if (a.height == 0) {
      if (keys_out != nullptr) *keys_out = 0;
      return Status::Ok();
    }
    // Leftmost spine: child(0) at every inner level.
    Block blk;
    ReadNodeOwner(a.root, &blk);
    int guard = 0;
    while (blk.hdr.level > 0) {
      Ref r(&blk);
      if (!r.Sane(blk.hdr.level, opt_.max_nodes)) {
        return Internal("insane inner node on leftmost spine");
      }
      if (++guard > 64) return Internal("leftmost spine too deep");
      ReadNodeOwner(r.child(0), &blk);
    }
    // Bottom chain: strict global order, bounded length.
    std::uint64_t keys = 0;
    bool have_last = false;
    K last{};
    std::uint64_t hops = 0;
    while (true) {
      Ref r(&blk);
      if (!r.Sane(0, opt_.max_nodes)) return Internal("insane leaf");
      for (std::uint32_t i = 0; i < r.count(); ++i) {
        if (have_last && !(last < r.key(i))) {
          return Internal("leaf chain keys out of order");
        }
        last = r.key(i);
        have_last = true;
        ++keys;
      }
      if (r.right() == kInvalidNode) break;
      if (++hops > opt_.max_nodes) return Internal("leaf chain cycle");
      ReadNodeOwner(r.right(), &blk);
    }
    if (keys_out != nullptr) *keys_out = keys;
    return Status::Ok();
  }

  const DescentStats& stats() const { return stats_; }
  const BTreeOptions& options() const { return opt_; }
  const std::string& name() const { return name_; }
  TreeAnchor anchor_snapshot() { return anchor_.Read(0); }

 private:
  static core::VectorOptions ArenaOptions(const BTreeOptions& o) {
    core::VectorOptions vo;
    vo.page_size = sizeof(Block);  // one node per page: a page write is a node write
    vo.pcache_bytes =
        o.cache_bytes != 0 ? o.cache_bytes : 64 * sizeof(Block);
    vo.prefetch_depth = 0;  // descents are pointer chases; prefetch is noise
    vo.nonvolatile = false;
    return vo;
  }
  static core::VectorOptions AnchorOptions() {
    core::VectorOptions vo;
    vo.page_size = sizeof(TreeAnchor);
    vo.pcache_bytes = 4 * sizeof(TreeAnchor);
    vo.prefetch_depth = 0;
    vo.nonvolatile = false;
    return vo;
  }

  /// Write lease body: coherence acquire at entry (stale clean pages
  /// dropped so the holder reads the latest committed tree), publish at
  /// Finish (arena before anchor, so a root switch never outruns the root
  /// node's bytes).
  class WriterTx {
   public:
    explicit WriterTx(BTree* t) : t_(t) {
      t_->anchor_.SeqTxBegin(0, 1, core::MM_READ_WRITE);
      t_->arena_.SeqTxBegin(0, t_->arena_.size(), core::MM_READ_WRITE);
    }
    void Finish() {
      if (done_) return;
      done_ = true;
      t_->arena_.TxEnd();
      t_->anchor_.TxEnd();
    }
    ~WriterTx() noexcept(false) { Finish(); }
    WriterTx(const WriterTx&) = delete;
    WriterTx& operator=(const WriterTx&) = delete;

   private:
    BTree* t_;
    bool done_ = false;
  };

  void WriteNode(std::uint64_t id, const Block& blk) {
    // Vector::Set marks the element dirty; the commit at lease end routes
    // it through the coherence directory so remote replicas invalidate.
    arena_.Set(id, blk);
  }

  /// Owner-thread node snapshot: one `Vector::Read`, which charges the
  /// access and turns a miss into the page layer's fault.
  void ReadNodeOwner(std::uint64_t id, Block* out) {
    ++stats_.node_reads;
    ++stats_.queue_fallbacks;
    *out = arena_.Read(id);
  }

  /// One descent: walk from the anchor's root to the leaf covering k,
  /// moving right past fences, checking every snapshot. Returns true when
  /// *out is the leaf, false on a structural anomaly (restart). The
  /// expected level comes from the anchor (height - 1 at the root), not
  /// from the node bytes — Sane() then cross-checks every snapshot against
  /// it, so a stale root-vs-anchor pairing surfaces as a restart, never a
  /// wrong walk. `path` (optional) records the node used per level.
  bool Descend(const K& k, const TreeAnchor& a, Block* out,
               std::vector<std::uint64_t>* path) {
    if (a.root >= opt_.max_nodes || a.height == 0 || a.height >= 64) {
      return false;
    }
    std::uint32_t level = static_cast<std::uint32_t>(a.height - 1);
    std::uint64_t id = a.root;
    ReadNodeOwner(id, out);
    int lateral = 0;
    while (true) {
      Ref r(out);
      if (!r.Sane(level, opt_.max_nodes)) return false;
      if (r.FenceMiss(k) && r.right() != kInvalidNode) {
        if (++lateral > opt_.max_lateral) return false;
        ++stats_.lateral_moves;
        id = r.right();
        ReadNodeOwner(id, out);
        continue;  // same expected level
      }
      if (path != nullptr) {
        // Record the node actually used at this level (post fence-chase).
        if (path->empty() || path->back() != id) path->push_back(id);
      }
      if (level == 0) return true;
      id = r.ChildFor(k);
      --level;
      ReadNodeOwner(id, out);
    }
  }

  /// Reader descent with bounded restarts. The structural guards stay on
  /// committed state too: a zeroed never-written page must surface as an
  /// error, not UB.
  void DescendOwner(const K& k, const TreeAnchor& a, Block* out) {
    for (int attempt = 0; attempt <= opt_.max_restarts; ++attempt) {
      if (Descend(k, a, out, nullptr)) return;
      ++stats_.restarts;
    }
    throw std::runtime_error("mm::BTree descent failed on committed state"
                             " (tree '" + name_ + "' corrupt?)");
  }

  /// Writer descent under the lease: coherent by construction, records the
  /// exact node id used per level (root first, leaf last). The lease
  /// excludes concurrent writers, so a structural anomaly is not a race.
  void DescendForWrite(const K& k, const TreeAnchor& a, Block* leaf,
                       std::vector<std::uint64_t>* path) {
    const bool reached = Descend(k, a, leaf, path);
    MM_CHECK_MSG(reached, "mm::BTree writer descent failed under lease");
  }

  static void InsertLeafSlot(Block* blk, std::uint32_t i, const K& k,
                             const V& v) {
    for (std::uint32_t j = blk->hdr.count; j > i; --j) {
      blk->leaf.keys[j] = blk->leaf.keys[j - 1];
      blk->leaf.vals[j] = blk->leaf.vals[j - 1];
    }
    blk->leaf.keys[i] = k;
    blk->leaf.vals[i] = v;
    ++blk->hdr.count;
  }

  std::uint64_t AllocNode(TreeAnchor* a) {
    MM_CHECK_MSG(a->next_node < opt_.max_nodes,
                 "mm::BTree node arena exhausted (raise max_nodes)");
    return a->next_node++;
  }

  /// Full-leaf insert: split, publish bottom-up with a commit barrier per
  /// level. The new sibling is written before the old node shrinks and
  /// links to it, and both are committed before the parent separator —
  /// so every committed prefix is a consistent B-link tree.
  void SplitAndInsert(TreeAnchor* a, const std::vector<std::uint64_t>& path,
                      Block leaf, const K& k, const V& v) {
    ++stats_.smos;
    const std::uint64_t left_id = path.back();
    const std::uint64_t right_id = AllocNode(a);

    const std::uint32_t mid = leaf.hdr.count / 2;
    Block right{};
    right.hdr.level = 0;
    right.hdr.count = leaf.hdr.count - mid;
    right.hdr.right = leaf.hdr.right;
    right.hdr.flags = leaf.hdr.flags;
    right.leaf.fence = leaf.leaf.fence;
    for (std::uint32_t j = 0; j < right.hdr.count; ++j) {
      right.leaf.keys[j] = leaf.leaf.keys[mid + j];
      right.leaf.vals[j] = leaf.leaf.vals[mid + j];
    }
    K sep = right.leaf.keys[0];
    leaf.hdr.count = mid;
    leaf.hdr.right = right_id;
    leaf.hdr.flags |= NodeHeader::kHasFence;
    leaf.leaf.fence = sep;

    // Route the pending insert to its half, then publish sibling-first.
    if (k < sep) {
      Ref r(&leaf);
      InsertLeafSlot(&leaf, r.LowerBound(k), k, v);
    } else {
      Ref r(&right);
      InsertLeafSlot(&right, r.LowerBound(k), k, v);
    }
    WriteNode(right_id, right);
    WriteNode(left_id, leaf);

    // Propagate (sep, right_id) upward; path.size()-2 is the leaf's parent.
    std::uint64_t child_right = right_id;
    int p = static_cast<int>(path.size()) - 2;
    while (true) {
      arena_.Commit();  // level barrier: children visible before the parent
      if (p < 0) {
        GrowRoot(a, path.front(), sep, child_right);
        return;
      }
      Block parent;
      ReadNodeOwner(path[static_cast<std::size_t>(p)], &parent);
      Ref pr(&parent);
      std::uint32_t i = pr.LowerBound(sep);
      if (parent.hdr.count < Inner::kCap) {
        for (std::uint32_t j = parent.hdr.count; j > i; --j) {
          parent.inner.seps[j] = parent.inner.seps[j - 1];
          parent.inner.children[j + 1] = parent.inner.children[j];
        }
        parent.inner.seps[i] = sep;
        parent.inner.children[i + 1] = child_right;
        ++parent.hdr.count;
        WriteNode(path[static_cast<std::size_t>(p)], parent);
        return;
      }
      // Inner split: push up seps[mid]; the right half takes the upper
      // separators and children, the left keeps fence = pushed separator.
      ++stats_.smos;
      const std::uint64_t inner_right_id = AllocNode(a);
      const std::uint32_t c = parent.hdr.count;
      const std::uint32_t m = c / 2;
      K up = parent.inner.seps[m];
      Block iright{};
      iright.hdr.level = parent.hdr.level;
      iright.hdr.count = c - m - 1;
      iright.hdr.right = parent.hdr.right;
      iright.hdr.flags = parent.hdr.flags;
      iright.inner.fence = parent.inner.fence;
      for (std::uint32_t j = 0; j < iright.hdr.count; ++j) {
        iright.inner.seps[j] = parent.inner.seps[m + 1 + j];
      }
      for (std::uint32_t j = 0; j <= iright.hdr.count; ++j) {
        iright.inner.children[j] = parent.inner.children[m + 1 + j];
      }
      parent.hdr.count = m;
      parent.hdr.right = inner_right_id;
      parent.hdr.flags |= NodeHeader::kHasFence;
      parent.inner.fence = up;
      // The pending (sep, child_right) lands in whichever half covers it.
      Block* target = (sep < up) ? &parent : &iright;
      Ref tr(target);
      std::uint32_t ti = tr.LowerBound(sep);
      for (std::uint32_t j = target->hdr.count; j > ti; --j) {
        target->inner.seps[j] = target->inner.seps[j - 1];
        target->inner.children[j + 1] = target->inner.children[j];
      }
      target->inner.seps[ti] = sep;
      target->inner.children[ti + 1] = child_right;
      ++target->hdr.count;
      WriteNode(inner_right_id, iright);
      WriteNode(path[static_cast<std::size_t>(p)], parent);
      sep = up;
      child_right = inner_right_id;
      --p;
    }
  }

  void GrowRoot(TreeAnchor* a, std::uint64_t left, const K& sep,
                std::uint64_t right) {
    ++stats_.smos;
    const std::uint64_t root_id = AllocNode(a);
    Block root{};
    Block probe;
    ReadNodeOwner(left, &probe);
    root.hdr.level = probe.hdr.level + 1;
    root.hdr.count = 1;
    root.hdr.right = kInvalidNode;
    root.inner.seps[0] = sep;
    root.inner.children[0] = left;
    root.inner.children[1] = right;
    WriteNode(root_id, root);
    arena_.Commit();  // root bytes visible before the anchor names them
    a->root = root_id;
    a->height = probe.hdr.level + 2;
    ++a->smo_epoch;
  }

  comm::RankContext* ctx_;
  BTreeOptions opt_;
  std::string name_;
  core::Vector<Block> arena_;
  core::Vector<TreeAnchor> anchor_;
  comm::DistributedLock* smo_lease_;
  telemetry::Counter* descent_count_;  // mm.index.descent_count, per node
  DescentStats stats_;
};

}  // namespace mm::index
