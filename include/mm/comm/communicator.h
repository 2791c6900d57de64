// Communicator: MPI-flavored typed point-to-point and collective operations
// over the simulated World. Collectives use binomial-tree algorithms
// (paper §III-C "Collective": tree-based patterns similar to MPICH
// allgather) so fan-in/fan-out costs scale as log(p).
//
// All operations are expressed against a *group* of world ranks, so
// sub-communicators (Split) behave like MPI_Comm_split — DBSCAN and Random
// Forest use them to recurse over left/right partitions.
//
// Failure handling (DESIGN.md §13): each collective has one
// implementation, a tree of poison envelopes (binomial for Bcast/Reduce,
// one level for GatherV/ScatterV), and every collective message carries a
// one-byte verdict ahead of its payload. The *Or variants are
// deadline-bounded: they return kPeerDead once the failure detector
// declares an expected peer dead (charging the detection latency to the
// virtual clock) and propagate the verdict down the tree so no rank ever
// hangs. The blocking collectives are checked wrappers over those same
// trees and, like the blocking Recv* calls, assume immortal peers: a
// kPeerDead verdict aborts (MM_CHECK). After a kPeerDead verdict,
// survivors call Revoke() + ShrinkAfterFailure() (or
// ckpt::CollectiveRecover) to fence the failed epoch and continue on a
// shrunk communicator.
#pragma once

#include <cstring>
#include <functional>
#include <vector>

#include "mm/comm/world.h"
#include "mm/util/status.h"

namespace mm::comm {

class Communicator {
 public:
  /// World communicator for `ctx`.
  explicit Communicator(RankContext* ctx);

  /// Sub-communicator over `group` (world ranks); `ctx->rank()` must be in
  /// the group.
  Communicator(RankContext* ctx, std::vector<int> group);

  int rank() const { return my_index_; }
  int size() const { return static_cast<int>(group_.size()); }
  int WorldRank(int index) const { return group_[index]; }
  RankContext& ctx() { return *ctx_; }

  // ---- point-to-point (ranks are communicator-local indices) ----

  /// Sends `bytes` to `dst`. The sender's clock advances past egress; the
  /// message is stamped with its simulated delivery time and a per-channel
  /// sequence number (injected duplicates are deduped by the receiver).
  void SendBytes(int dst, int tag, const void* data, std::size_t size);

  /// Blocking receive from `src` (or kAnySource). Advances the receiver's
  /// clock to the delivery time. Returns the payload. Aborts (MM_CHECK) if
  /// the peer dies while waiting — use RecvBytesOr on paths that must
  /// survive node death.
  std::vector<std::uint8_t> RecvBytes(int src, int tag,
                                      int* actual_src = nullptr);

  /// Deadline-bounded receive: returns kPeerDead once every rank that could
  /// still satisfy the match is declared dead by the failure detector (or
  /// the world is revoked by a survivor running recovery). The death
  /// verdict charges miss_threshold heartbeat intervals to the caller's
  /// virtual clock.
  StatusOr<std::vector<std::uint8_t>> RecvBytesOr(int src, int tag,
                                                  int* actual_src = nullptr);

  /// Typed convenience wrappers for trivially copyable element types.
  template <typename T>
  void Send(int dst, int tag, const std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    SendBytes(dst, tag, data.data(), data.size() * sizeof(T));
  }

  template <typename T>
  void SendValue(int dst, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    SendBytes(dst, tag, &value, sizeof(T));
  }

  /// Typed receive that degrades instead of aborting: kPeerDead when the
  /// sender died, kDataLoss when the payload is malformed (truncated or not
  /// a whole number of elements).
  template <typename T>
  StatusOr<std::vector<T>> RecvOr(int src, int tag, int* actual_src = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto bytes = RecvBytesOr(src, tag, actual_src);
    if (!bytes.ok()) return bytes.status();
    if (bytes->size() % sizeof(T) != 0) {
      return DataLoss("malformed payload: " + std::to_string(bytes->size()) +
                      " bytes is not a whole number of " +
                      std::to_string(sizeof(T)) + "-byte elements");
    }
    std::vector<T> out(bytes->size() / sizeof(T));
    std::memcpy(out.data(), bytes->data(), bytes->size());
    return out;
  }

  template <typename T>
  StatusOr<T> RecvValueOr(int src, int tag, int* actual_src = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto bytes = RecvBytesOr(src, tag, actual_src);
    if (!bytes.ok()) return bytes.status();
    if (bytes->size() != sizeof(T)) {
      return DataLoss("malformed payload: got " +
                      std::to_string(bytes->size()) + " bytes, want " +
                      std::to_string(sizeof(T)));
    }
    T value;
    std::memcpy(&value, bytes->data(), sizeof(T));
    return value;
  }

  template <typename T>
  std::vector<T> Recv(int src, int tag, int* actual_src = nullptr) {
    auto out = RecvOr<T>(src, tag, actual_src);
    MM_CHECK_MSG(out.ok(), out.status().ToString());
    return std::move(out).value();
  }

  template <typename T>
  T RecvValue(int src, int tag, int* actual_src = nullptr) {
    auto out = RecvValueOr<T>(src, tag, actual_src);
    MM_CHECK_MSG(out.ok(), out.status().ToString());
    return std::move(out).value();
  }

  // ---- collectives ----
  //
  // A rank whose parent or subtree failed still forwards a poison envelope
  // to its children, so the tree always unwinds: every *Or call returns (Ok
  // or kPeerDead), nobody hangs. On kPeerDead the data is partial/garbage;
  // run recovery and redo the collective on the shrunk communicator. The
  // blocking forms abort (MM_CHECK) where the *Or form would return an
  // error.

  /// Synchronizes all communicator members and their virtual clocks. Sync
  /// only: on the world communicator a dead rank's survivors are released
  /// without it and no verdict is reported (BarrierOr adds the verdict).
  void Barrier() { CheckCollective(SyncMembers()); }

  /// Death-aware barrier: synchronizes the *live* members and returns
  /// kPeerDead when any member of this communicator is dead at release —
  /// the caller must run recovery before trusting collective results.
  [[nodiscard]] Status BarrierOr();

  /// Barrier whose last-arriving member runs `serial` alone — with every
  /// other rank still parked — before anyone is released (see
  /// World::Barrier). Only valid on the world communicator: a sub-group
  /// cannot quiesce the whole job. The checkpoint collective is built on
  /// this.
  [[nodiscard]] Status BarrierSerial(
      const std::function<sim::SimTime(sim::SimTime)>& serial);

  /// Binomial-tree broadcast from `root` (communicator-local index).
  template <typename T>
  void Bcast(std::vector<T>& data, int root) {
    CheckCollective(BcastOr(data, root));
  }

  template <typename T>
  [[nodiscard]] Status BcastOr(std::vector<T>& data, int root) {
    return BcastEnvelope(data, root, StatusCode::kOk);
  }

  /// Tree reduction of per-rank vectors with `op` applied elementwise;
  /// result is valid on `root` only.
  template <typename T, typename Op>
  void Reduce(std::vector<T>& data, int root, Op op) {
    CheckCollective(ReduceOr(data, root, op));
  }

  template <typename T, typename Op>
  [[nodiscard]] Status ReduceOr(std::vector<T>& data, int root, Op op);

  /// Reduce + Bcast.
  template <typename T, typename Op>
  void AllReduce(std::vector<T>& data, Op op) {
    CheckCollective(AllReduceOr(data, op));
  }

  template <typename T, typename Op>
  [[nodiscard]] Status AllReduceOr(std::vector<T>& data, Op op) {
    Status rs = ReduceOr(data, /*root=*/0, op);
    // The root seeds the broadcast with the reduction's verdict so every
    // survivor learns the collective failed, not just the root.
    Status bs = BcastEnvelope(
        data, /*root=*/0, my_index_ == 0 ? rs.code() : StatusCode::kOk);
    return !rs.ok() ? rs : bs;
  }

  /// Gathers variable-length vectors to `root`; result on root is indexed by
  /// communicator-local rank (empty on the other ranks).
  template <typename T>
  std::vector<std::vector<T>> GatherV(const std::vector<T>& mine, int root) {
    std::vector<std::vector<T>> all;
    CheckCollective(GatherVOr(mine, root, &all));
    return all;
  }

  /// Gathers to `root` into `*all` (indexed by communicator rank; dead
  /// members leave empty slots). Non-root ranks only contribute and always
  /// return Ok unless they themselves are cancelled.
  template <typename T>
  [[nodiscard]] Status GatherVOr(const std::vector<T>& mine, int root,
                                 std::vector<std::vector<T>>* all);

  /// GatherV + Bcast of the concatenation.
  template <typename T>
  std::vector<T> AllGatherV(const std::vector<T>& mine);

  /// Scatters `parts[i]` from root to rank i.
  template <typename T>
  std::vector<T> ScatterV(const std::vector<std::vector<T>>& parts,
                          int root) {
    std::vector<T> mine;
    CheckCollective(ScatterVOr(parts, root, &mine));
    return mine;
  }

  /// Scatters `parts[i]` from root into `*mine`; kPeerDead when the root
  /// died before serving this rank.
  template <typename T>
  [[nodiscard]] Status ScatterVOr(const std::vector<std::vector<T>>& parts,
                                  int root, std::vector<T>* mine);

  /// Creates a sub-communicator: ranks sharing `color` form a group ordered
  /// by current rank. Collective over this communicator.
  Communicator Split(int color);

  // ---- recovery (DESIGN.md §13 fencing protocol) ----

  /// Marks the world revoked: all pending/future cancellable receives
  /// return kPeerDead, pulling every survivor out of half-finished
  /// collectives and into the recovery barrier. Call on a kPeerDead
  /// verdict, before ShrinkAfterFailure / ckpt::CollectiveRecover.
  void Revoke() { ctx_->world().Revoke(); }

  /// Survivor communicator: the live members of this group in order, in the
  /// next tag epoch. Purely local — membership is shared state, so all
  /// survivors compute the same group without communicating. Call only
  /// after a synchronization point (ShrinkAfterFailure does it for you).
  Communicator Shrink();

  /// Post-failure membership reconciliation on the world communicator:
  /// synchronizes all live ranks, fences the failed epoch (purges every
  /// undelivered message, so no stale one can match a survivor receive),
  /// clears the revocation, and returns the survivor communicator.
  StatusOr<Communicator> ShrinkAfterFailure();

 private:
  /// One received death-aware tree message. `frame` is the message payload
  /// as delivered — the verdict byte, then the data — so decoding copies the
  /// data exactly once, straight into the caller's vector.
  struct Envelope {
    StatusCode code = StatusCode::kOk;
    std::vector<std::uint8_t> frame;
    int src_world = -1;
  };

  int TagFor(int user_tag) const {
    // A user tag must fit the low 16 bits; anything wider would silently
    // collide with another Split generation's tag space.
    MM_CHECK_MSG(user_tag >= 0 && (user_tag & ~0xFFFF) == 0,
                 "comm tag must be within [0, 65535]");
    return (color_epoch_ << 16) | user_tag;
  }

  /// Comm-op entry hook: triggers the configured self-kill and stops
  /// already-dead (zombie) ranks from sending. Throws RankDeathError.
  void CheckAlive();

  /// The blocking collectives' abort: a failed verdict becomes an MM_CHECK.
  static void CheckCollective(const Status& st) {
    MM_CHECK_MSG(st.ok(), st.ToString());
  }

  /// The sync step Barrier and BarrierOr share: the world barrier when this
  /// communicator spans the world (it releases the live members), else an
  /// empty-token tree all-reduce (every member ends at >= the max arrival
  /// time).
  Status SyncMembers();

  /// Core send: one message whose payload is the optional `verdict` byte
  /// followed by `size` bytes of `data`, built in a single copy.
  void SendFrame(int dst, int tag, const std::uint8_t* verdict,
                 const void* data, std::size_t size);

  /// Core bounded receive: blocks for a message with `wire_tag` from any of
  /// `srcs_world` (all group members but me when empty); cancels with
  /// kPeerDead when every candidate is dead or the world is revoked.
  StatusOr<std::vector<std::uint8_t>> RecvBytesMatch(
      const std::vector<int>& srcs_world, int wire_tag, int* actual_src_world);

  /// Envelope plumbing for the trees (dst/pending are communicator-local
  /// indices).
  template <typename T>
  void SendEnvelope(int dst, int tag, StatusCode code,
                    const std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto verdict = static_cast<std::uint8_t>(code);
    SendFrame(dst, tag, &verdict, data.data(), data.size() * sizeof(T));
  }

  StatusOr<Envelope> RecvEnvelopeFrom(const std::vector<int>& pending, int tag);

  template <typename T>
  static Status DecodeEnvelope(const Envelope& env, std::vector<T>* out) {
    if (env.code != StatusCode::kOk) {
      return PeerDead("poisoned subtree: " +
                      std::string(StatusCodeName(env.code)));
    }
    const std::size_t size = env.frame.size() - 1;
    if (size % sizeof(T) != 0) {
      return DataLoss("malformed envelope payload");
    }
    out->resize(size / sizeof(T));
    if (size > 0) std::memcpy(out->data(), env.frame.data() + 1, size);
    return Status::Ok();
  }

  /// Binomial-tree broadcast of (verdict, data); `seed` lets the root
  /// originate a poison verdict (AllReduceOr, AllGatherV).
  template <typename T>
  Status BcastEnvelope(std::vector<T>& data, int root, StatusCode seed);

  RankContext* ctx_;
  std::vector<int> group_;   // communicator index -> world rank
  std::vector<int> world_to_index_;  // world rank -> index (-1: not a member)
  int my_index_;
  int color_epoch_ = 0;      // disambiguates tags across Split generations
  telemetry::Counter* retransmit_counter_;      // mm.net.retransmit_count
  telemetry::Counter* heartbeat_miss_counter_;  // mm.net.heartbeat_miss_count
};

// ---- template implementations ----

template <typename T>
std::vector<T> Communicator::AllGatherV(const std::vector<T>& mine) {
  std::vector<std::vector<T>> parts;
  Status gs = GatherVOr(mine, /*root=*/0, &parts);
  std::vector<T> flat;
  for (auto& part : parts) flat.insert(flat.end(), part.begin(), part.end());
  // As in AllReduceOr, the root seeds the broadcast with the gather's
  // verdict so every rank fails the check, not just the root.
  Status bs = BcastEnvelope(flat, /*root=*/0, gs.code());
  CheckCollective(!gs.ok() ? gs : bs);
  return flat;
}

template <typename T>
Status Communicator::BcastEnvelope(std::vector<T>& data, int root,
                                   StatusCode seed) {
  int n = size();
  if (n == 1) return seed == StatusCode::kOk
                         ? Status::Ok()
                         : PeerDead("collective poisoned at root");
  // Binomial tree rooted at `root`. In relative ranks, a nonzero rank
  // receives from its parent (lowest set bit cleared) and then forwards to
  // rel + 2^j for j below its lowest set bit.
  int rel = (my_index_ - root + n) % n;
  constexpr int kTag = 0x5B;
  int rounds = 0;
  while ((1 << rounds) < n) ++rounds;
  Status st = Status::Ok();
  int start_j;
  if (rel != 0) {
    int low = __builtin_ctz(static_cast<unsigned>(rel));
    int parent_rel = rel & (rel - 1);
    auto env = RecvEnvelopeFrom({(parent_rel + root) % n}, kTag);
    if (!env.ok()) {
      st = env.status();  // parent dead: this subtree is poisoned
    } else {
      st = DecodeEnvelope(*env, &data);
    }
    start_j = low - 1;
  } else {
    if (seed != StatusCode::kOk) {
      st = PeerDead("collective poisoned at root");
    }
    start_j = rounds - 1;
  }
  // Forward either the data or the poison — children must never hang.
  for (int j = start_j; j >= 0; --j) {
    int child_rel = rel + (1 << j);
    if (child_rel < n) {
      if (st.ok()) {
        SendEnvelope((child_rel + root) % n, kTag, StatusCode::kOk, data);
      } else {
        SendEnvelope((child_rel + root) % n, kTag, StatusCode::kPeerDead,
                     std::vector<T>());
      }
    }
  }
  if (!st.ok()) data.clear();
  return st;
}

template <typename T, typename Op>
Status Communicator::ReduceOr(std::vector<T>& data, int root, Op op) {
  int n = size();
  if (n == 1) return Status::Ok();
  int rel = (my_index_ - root + n) % n;
  constexpr int kTag = 0x6C;
  Status st = Status::Ok();
  // Binomial-tree fan-in: at round k, ranks with bit k set send to rel-2^k.
  for (int k = 0; (1 << k) < n; ++k) {
    if (rel & (1 << k)) {
      // Contribute upward, tagging the partial aggregate with our verdict
      // so a poisoned subtree is visible at the root.
      SendEnvelope(((rel ^ (1 << k)) + root) % n, kTag, st.code(), data);
      return st;
    }
    int peer_rel = rel | (1 << k);
    if (peer_rel < n) {
      auto env = RecvEnvelopeFrom({(peer_rel + root) % n}, kTag);
      if (!env.ok()) {
        st = env.status();  // peer died: its whole subtree is missing
        continue;
      }
      if (env->code != StatusCode::kOk) {
        st = PeerDead("poisoned subtree contribution");
        env->code = StatusCode::kOk;  // still fold in the partial aggregate
      }
      std::vector<T> theirs;
      Status decode = DecodeEnvelope(*env, &theirs);
      if (!decode.ok() || theirs.size() != data.size()) {
        st = !decode.ok() ? decode : PeerDead("partial subtree contribution");
        continue;
      }
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = op(data[i], theirs[i]);
      }
    }
  }
  return st;
}

template <typename T>
Status Communicator::GatherVOr(const std::vector<T>& mine, int root,
                               std::vector<std::vector<T>>* all) {
  int n = size();
  constexpr int kTag = 0x7D;
  if (my_index_ != root) {
    SendEnvelope(root, kTag, StatusCode::kOk, mine);
    return Status::Ok();
  }
  all->assign(static_cast<std::size_t>(n), {});
  (*all)[root] = mine;
  std::vector<int> pending;
  pending.reserve(static_cast<std::size_t>(n) - 1);
  for (int i = 0; i < n; ++i) {
    if (i != root) pending.push_back(i);
  }
  Status st = Status::Ok();
  while (!pending.empty()) {
    auto env = RecvEnvelopeFrom(pending, kTag);
    if (!env.ok()) {
      // Every remaining contributor is dead; their slots stay empty.
      st = env.status();
      break;
    }
    int idx = world_to_index_[env->src_world];
    MM_CHECK(idx >= 0);
    Status decode = DecodeEnvelope(*env, &(*all)[idx]);
    if (!decode.ok()) st = decode;
    pending.erase(std::find(pending.begin(), pending.end(), idx));
  }
  return st;
}

template <typename T>
Status Communicator::ScatterVOr(const std::vector<std::vector<T>>& parts,
                                int root, std::vector<T>* mine) {
  constexpr int kTag = 0x8E;
  int n = size();
  if (my_index_ == root) {
    MM_CHECK(static_cast<int>(parts.size()) == n);
    for (int i = 0; i < n; ++i) {
      if (i != root) SendEnvelope(i, kTag, StatusCode::kOk, parts[i]);
    }
    *mine = parts[root];
    return Status::Ok();
  }
  auto env = RecvEnvelopeFrom({root}, kTag);
  if (!env.ok()) return env.status();
  return DecodeEnvelope(*env, mine);
}

}  // namespace mm::comm
