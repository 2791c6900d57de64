// B-link tree node layout (DESIGN.md §15). One node occupies exactly one
// DSM page of the tree's node arena (`page_size == sizeof(NodeBlock)`), so
// the pcache frame seqlock IS the node's version lock and a validated
// OptimisticGuard copy of the page is a consistent node snapshot.
//
// Both node kinds share a header carrying the B-link invariants:
//
//   level    0 = leaf, >0 = inner; a descent checks it against the level it
//            expects, so a torn/recycled/stale page can never be followed.
//   right    right-sibling node id at the same level (kInvalidNode at the
//            rightmost edge). Splits publish the new sibling FIRST, then
//            shrink the old node and link it — so a reader holding any
//            committed snapshot reaches every key by moving right.
//   fence    exclusive upper bound of the keys under this node (valid when
//            kHasFence is set; the rightmost node of a level has none). A
//            search key >= fence means "the key moved right of here".
//
// Raw field access (`keys`/`vals`/`seps`/`children`/`hdr` on a node) is the
// index subsystem's private business: outside include/mm/index + src/index
// it is flagged by ci/mm_verify.py rule MML011 — external code goes through
// `NodeRef` (read view) or the `mm::BTree` API.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace mm::index {

inline constexpr std::uint64_t kInvalidNode = ~0ULL;

struct NodeHeader {
  std::uint32_t level = 0;
  std::uint32_t count = 0;
  std::uint64_t right = kInvalidNode;
  std::uint64_t flags = 0;

  static constexpr std::uint64_t kHasFence = 1ull << 0;
};

/// Leaf: sorted keys with their values, slotted into fixed arrays.
template <class K, class V, std::size_t Bytes>
struct LeafNode {
  static constexpr std::size_t kCap =
      (Bytes - sizeof(NodeHeader) - sizeof(K)) / (sizeof(K) + sizeof(V));
  NodeHeader hdr;
  K fence;
  K keys[kCap];
  V vals[kCap];
};

/// Inner: `count` separators and `count + 1` children; child(i) covers
/// keys in [sep(i-1), sep(i)).
template <class K, class V, std::size_t Bytes>
struct InnerNode {
  static constexpr std::size_t kCap =
      (Bytes - sizeof(NodeHeader) - sizeof(K) - sizeof(std::uint64_t)) /
      (sizeof(K) + sizeof(std::uint64_t));
  NodeHeader hdr;
  K fence;
  K seps[kCap];
  std::uint64_t children[kCap + 1];
};

/// One arena element == one DSM page. The union pads to exactly `Bytes`;
/// both layouts begin with NodeHeader (common initial sequence), so
/// `blk.hdr.level` dispatches the kind for any committed snapshot.
template <class K, class V, std::size_t Bytes = 4096>
union NodeBlock {
  NodeHeader hdr;
  LeafNode<K, V, Bytes> leaf;
  InnerNode<K, V, Bytes> inner;
  std::uint8_t raw[Bytes];

  // The variant members' implicit ctors are non-trivial (NodeHeader has
  // default member initializers), so spell out a zero-filling default —
  // a zero page is also what an unwritten arena page reads as.
  NodeBlock() : raw{} {}

  static_assert(std::is_trivially_copyable_v<K> &&
                    std::is_trivially_copyable_v<V>,
                "mm::BTree keys and values travel as raw page bytes");
  static_assert(sizeof(LeafNode<K, V, Bytes>) <= Bytes &&
                    sizeof(InnerNode<K, V, Bytes>) <= Bytes,
                "node layouts must fit one arena page");
  static_assert(LeafNode<K, V, Bytes>::kCap >= 4 &&
                    InnerNode<K, V, Bytes>::kCap >= 4,
                "fanout too small: raise node_bytes or shrink the value");
};

/// Read-only typed view over a node snapshot — the sanctioned accessor for
/// everything outside the index subsystem (MML011), and the validation
/// surface descents use before trusting a snapshot.
template <class K, class V, std::size_t Bytes = 4096>
class NodeRef {
 public:
  using Block = NodeBlock<K, V, Bytes>;

  explicit NodeRef(const Block* blk) : blk_(blk) {}

  bool is_leaf() const { return blk_->hdr.level == 0; }
  std::uint32_t level() const { return blk_->hdr.level; }
  std::uint32_t count() const { return blk_->hdr.count; }
  std::uint64_t right() const { return blk_->hdr.right; }
  bool has_fence() const {
    return (blk_->hdr.flags & NodeHeader::kHasFence) != 0;
  }
  const K& fence() const { return blk_->leaf.fence; }

  const K& key(std::uint32_t i) const { return blk_->leaf.keys[i]; }
  const V& value(std::uint32_t i) const { return blk_->leaf.vals[i]; }
  const K& sep(std::uint32_t i) const { return blk_->inner.seps[i]; }
  std::uint64_t child(std::uint32_t i) const {
    return blk_->inner.children[i];
  }

  /// First slot whose key/separator is >= k (== count() when none).
  std::uint32_t LowerBound(const K& k) const {
    const K* arr = is_leaf() ? blk_->leaf.keys : blk_->inner.seps;
    std::uint32_t lo = 0, hi = count();
    while (lo < hi) {
      std::uint32_t mid = lo + (hi - lo) / 2;
      if (arr[mid] < k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Descent routing: the child covering k, after the caller has ruled out
  /// a fence miss (k >= fence ⇒ move right instead of descending).
  std::uint64_t ChildFor(const K& k) const {
    std::uint32_t i = LowerBound(k);
    // Separators are exclusive upper bounds: k == sep(i) belongs right.
    if (i < count() && !(k < blk_->inner.seps[i])) ++i;
    return blk_->inner.children[i];
  }

  /// Keys moved right of this snapshot: follow hdr.right instead.
  bool FenceMiss(const K& k) const {
    return has_fence() && !(k < blk_->leaf.fence);
  }

  /// Structural sanity of a snapshot: expected level, bounded count, keys
  /// strictly sorted, children under the allocation horizon. A snapshot
  /// failing this (torn commit interleaving, recycled frame, stale zero
  /// page) sends the descent into a restart, never into undefined behavior.
  bool Sane(std::uint32_t expected_level, std::uint64_t next_node) const {
    if (blk_->hdr.level != expected_level) return false;
    const std::uint32_t cap = is_leaf()
                                  ? static_cast<std::uint32_t>(
                                        LeafNode<K, V, Bytes>::kCap)
                                  : static_cast<std::uint32_t>(
                                        InnerNode<K, V, Bytes>::kCap);
    if (count() > cap) return false;
    const K* arr = is_leaf() ? blk_->leaf.keys : blk_->inner.seps;
    for (std::uint32_t i = 1; i < count(); ++i) {
      if (!(arr[i - 1] < arr[i])) return false;
    }
    if (!is_leaf()) {
      for (std::uint32_t i = 0; i <= count(); ++i) {
        if (blk_->inner.children[i] >= next_node) return false;
      }
    }
    if (right() != kInvalidNode && right() >= next_node) return false;
    return true;
  }

 private:
  const Block* blk_;
};

/// Tree anchor: one element of its own single-page vector. `height == 0`
/// means "not yet created". Readers may act on a stale committed anchor —
/// an old root still reaches every key through right links — so the anchor
/// is a hint for descent entry, not a coherence point; writers refresh it
/// under the SMO lease before structural changes.
struct TreeAnchor {
  std::uint64_t root = 0;
  std::uint64_t height = 0;     // levels; 1 = root is a leaf
  std::uint64_t next_node = 0;  // arena allocation cursor (bump-only)
  std::uint64_t smo_epoch = 0;  // structure-modification generation
};

}  // namespace mm::index
