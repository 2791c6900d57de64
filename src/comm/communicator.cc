#include "mm/comm/communicator.h"

#include <algorithm>
#include <numeric>

namespace mm::comm {

namespace {

std::vector<int> BuildWorldToIndex(const std::vector<int>& group,
                                   int num_ranks) {
  std::vector<int> map(static_cast<std::size_t>(num_ranks), -1);
  for (std::size_t i = 0; i < group.size(); ++i) {
    MM_CHECK(group[i] >= 0 && group[i] < num_ranks);
    map[static_cast<std::size_t>(group[i])] = static_cast<int>(i);
  }
  return map;
}

}  // namespace

Communicator::Communicator(RankContext* ctx, std::vector<int> group)
    : ctx_(ctx), group_(std::move(group)) {
  auto it = std::find(group_.begin(), group_.end(), ctx->rank());
  MM_CHECK_MSG(it != group_.end(), "rank not in communicator group");
  my_index_ = static_cast<int>(it - group_.begin());
  world_to_index_ = BuildWorldToIndex(group_, ctx->size());
  retransmit_counter_ =
      ctx_->world().metrics().GetCounter("mm.net.retransmit_count");
  heartbeat_miss_counter_ =
      ctx_->world().metrics().GetCounter("mm.net.heartbeat_miss_count");
}

Communicator::Communicator(RankContext* ctx)
    : Communicator(ctx, [ctx] {
        std::vector<int> all(static_cast<std::size_t>(ctx->size()));
        std::iota(all.begin(), all.end(), 0);
        return all;
      }()) {}

void Communicator::CheckAlive() {
  World& world = ctx_->world();
  int me = group_[my_index_];
  world.MaybeSelfKill(me, ctx_->clock().now());
  // A rank killed externally (test harness, another rank's verdict) stops
  // communicating at its next op instead of sending as a zombie.
  if (world.RankDead(me)) throw RankDeathError(me);
}

void Communicator::SendBytes(int dst, int tag, const void* data,
                             std::size_t size) {
  SendFrame(dst, tag, /*verdict=*/nullptr, data, size);
}

void Communicator::SendFrame(int dst, int tag, const std::uint8_t* verdict,
                             const void* data, std::size_t size) {
  MM_CHECK(dst >= 0 && dst < this->size());
  CheckAlive();
  World& world = ctx_->world();
  int dst_world = group_[dst];
  int src_world = group_[my_index_];
  const std::size_t wire_size = size + (verdict != nullptr ? 1 : 0);
  sim::Network::NetOutcome outcome;
  const sim::SimTime send_start = ctx_->clock().now();
  auto res = world.cluster().network().Transfer(
      send_start, world.NodeOfRank(src_world), world.NodeOfRank(dst_world),
      wire_size, &outcome);
  // MPI_Send semantics: the sender resumes once its buffer is reusable,
  // i.e. when egress serialization completes.
  ctx_->clock().AdvanceTo(res.egress_done);
  if (outcome.retransmits > 0) {
    retransmit_counter_->Inc(static_cast<std::uint64_t>(outcome.retransmits));
  }
  // Each logical message is its own flow: one msg_send async origin here,
  // one msg_recv terminal hop when the receiver pops it. Retransmitted /
  // duplicated copies share the seq AND the trace ids, and the mailbox
  // dedup guarantees at most one recv span per flow.
  telemetry::TraceContext mctx = telemetry::TraceRecorder::NewContext(
      static_cast<int>(world.NodeOfRank(src_world)));
  mctx.parent_span = telemetry::CurrentTraceContext().trace_id;
  world.trace().CompleteFlow("msg_send", "msg",
                             static_cast<int>(world.NodeOfRank(src_world)),
                             src_world, send_start, res.egress_done, mctx,
                             'a');
  Message msg;
  msg.src = src_world;
  msg.tag = TagFor(tag);
  msg.seq = world.NextSeq(src_world, dst_world);
  msg.payload.reserve(wire_size);
  if (verdict != nullptr) msg.payload.push_back(*verdict);
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  msg.payload.insert(msg.payload.end(), bytes, bytes + size);
  msg.delivered = res.delivered;
  msg.trace_id = mctx.trace_id;
  msg.parent_span = mctx.parent_span;
  Mailbox& box = world.mailbox(dst_world);
  if (outcome.duplicated) {
    // The link delivered two copies; they share a sequence number, so the
    // mailbox accepts one and counts the other as a dropped duplicate.
    Message dup = msg;
    box.Deposit(std::move(msg));
    box.Deposit(std::move(dup));
  } else {
    box.Deposit(std::move(msg));
  }
}

StatusOr<std::vector<std::uint8_t>> Communicator::RecvBytesMatch(
    const std::vector<int>& srcs_world, int wire_tag, int* actual_src_world) {
  CheckAlive();
  World& world = ctx_->world();
  int me = group_[my_index_];
  std::vector<int> candidates = srcs_world;
  if (candidates.empty()) {
    candidates.reserve(group_.size() - 1);
    for (int r : group_) {
      if (r != me) candidates.push_back(r);
    }
  }
  auto match = [wire_tag, &candidates](const Message& m) {
    return m.tag == wire_tag &&
           std::find(candidates.begin(), candidates.end(), m.src) !=
               candidates.end();
  };
  auto cancelled = [&world, &candidates] {
    if (world.Revoked()) return true;
    for (int r : candidates) {
      if (!world.RankDead(r)) return false;
    }
    return true;
  };
  Message msg;
  if (world.mailbox(me).TakeWhere(match, cancelled, &msg)) {
    ctx_->clock().AdvanceTo(msg.delivered);
    if (msg.trace_id != 0) {
      // Terminal hop of the message flow (closes the 's' the sender
      // opened). Exactly one per logical message: duplicates never make
      // it out of the mailbox.
      telemetry::TraceContext mctx;
      mctx.trace_id = msg.trace_id;
      mctx.parent_span = msg.parent_span;
      world.trace().CompleteFlow("msg_recv", "msg",
                                 static_cast<int>(world.NodeOfRank(me)), me,
                                 msg.delivered, msg.delivered, mctx, 'f');
    }
    if (actual_src_world != nullptr) *actual_src_world = msg.src;
    return std::move(msg.payload);
  }
  // Cancelled. A death verdict is not free: the failure detector needs
  // miss_threshold silent heartbeat intervals after the (latest) death
  // before it may declare the peer dead, so charge that to the virtual
  // clock and to mm.net.heartbeat_miss_count.
  bool any_dead = false;
  sim::SimTime latest_death = 0.0;
  for (int r : candidates) {
    if (world.RankDead(r)) {
      any_dead = true;
      latest_death = std::max(latest_death, world.DeathTime(r));
    }
  }
  const FailureDetectorOptions& det = world.detector();
  if (any_dead) {
    ctx_->clock().AdvanceTo(std::max(ctx_->clock().now(), latest_death) +
                            det.DetectionLatency());
    heartbeat_miss_counter_->Inc(
        static_cast<std::uint64_t>(det.miss_threshold));
    return PeerDead("expected sender(s) declared dead after " +
                    std::to_string(det.miss_threshold) +
                    " missed heartbeats");
  }
  return PeerDead("communicator revoked for failure recovery");
}

StatusOr<std::vector<std::uint8_t>> Communicator::RecvBytesOr(
    int src, int tag, int* actual_src) {
  std::vector<int> srcs;
  if (src != kAnySource) {
    MM_CHECK(src >= 0 && src < this->size());
    srcs.push_back(group_[src]);
  }
  return RecvBytesMatch(srcs, TagFor(tag), actual_src);
}

std::vector<std::uint8_t> Communicator::RecvBytes(int src, int tag,
                                                  int* actual_src) {
  auto out = RecvBytesOr(src, tag, actual_src);
  MM_CHECK_MSG(out.ok(), out.status().ToString());
  return std::move(out).value();
}

StatusOr<Communicator::Envelope> Communicator::RecvEnvelopeFrom(
    const std::vector<int>& pending, int tag) {
  std::vector<int> srcs;
  srcs.reserve(pending.size());
  for (int idx : pending) {
    MM_CHECK(idx >= 0 && idx < this->size());
    srcs.push_back(group_[idx]);
  }
  int src_world = -1;
  auto bytes = RecvBytesMatch(srcs, TagFor(tag), &src_world);
  if (!bytes.ok()) return bytes.status();
  if (bytes->empty()) return DataLoss("envelope missing verdict header");
  Envelope env;
  env.code = static_cast<StatusCode>((*bytes)[0]);
  env.frame = std::move(bytes).value();
  env.src_world = src_world;
  return env;
}

Status Communicator::SyncMembers() {
  World& world = ctx_->world();
  if (static_cast<int>(group_.size()) == world.num_ranks()) {
    sim::SimTime release = world.Barrier(ctx_->rank(), ctx_->clock().now());
    ctx_->clock().AdvanceTo(release);
    return Status::Ok();
  }
  std::vector<std::uint8_t> token(1, 0);
  return AllReduceOr(token, [](std::uint8_t a, std::uint8_t b) {
    return static_cast<std::uint8_t>(a | b);
  });
}

Status Communicator::BarrierOr() {
  MM_RETURN_IF_ERROR(SyncMembers());
  // The barrier released over the live members; surface any death in this
  // group so the caller runs recovery before trusting collective results.
  World& world = ctx_->world();
  for (int r : group_) {
    if (world.RankDead(r)) {
      return PeerDead("rank " + std::to_string(r) + " dead at barrier");
    }
  }
  return Status::Ok();
}

Status Communicator::BarrierSerial(
    const std::function<sim::SimTime(sim::SimTime)>& serial) {
  World& world = ctx_->world();
  if (static_cast<int>(group_.size()) != world.num_ranks()) {
    // A sub-group cannot quiesce ranks outside itself, so a serial section
    // over a split communicator would still race the rest of the job.
    return FailedPrecondition(
        "BarrierSerial requires the world communicator");
  }
  sim::SimTime release =
      world.Barrier(ctx_->rank(), ctx_->clock().now(), &serial);
  ctx_->clock().AdvanceTo(release);
  return Status::Ok();
}

Communicator Communicator::Split(int color) {
  // Exchange (color, world rank) pairs; members with my color form the new
  // group ordered by current communicator index.
  std::vector<int> mine = {color, group_[my_index_]};
  auto all = AllGatherV(mine);
  std::vector<int> new_group;
  for (std::size_t i = 0; i + 1 < all.size(); i += 2) {
    if (all[i] == color) new_group.push_back(all[i + 1]);
  }
  Communicator sub(ctx_, std::move(new_group));
  sub.color_epoch_ = color_epoch_ + 1;
  return sub;
}

Communicator Communicator::Shrink() {
  World& world = ctx_->world();
  std::vector<int> live;
  live.reserve(group_.size());
  for (int r : group_) {
    if (!world.RankDead(r)) live.push_back(r);
  }
  Communicator sub(ctx_, std::move(live));
  // Next tag epoch. A sibling Split of this communicator shares it, so a
  // message left on one could match a survivor receive; the recovery fence
  // (World::FenceDeadRanks) therefore purges every undelivered message.
  sub.color_epoch_ = color_epoch_ + 1;
  return sub;
}

StatusOr<Communicator> Communicator::ShrinkAfterFailure() {
  World& world = ctx_->world();
  std::function<sim::SimTime(sim::SimTime)> serial =
      [&world](sim::SimTime sync) {
        // Every live rank is parked here, so fencing cannot race a deposit
        // from a live sender: every undelivered message — a dead rank's or
        // a stale one from an earlier Split — is purged.
        world.FenceDeadRanks();
        world.ClearRevoke();
        return sync;
      };
  MM_RETURN_IF_ERROR(BarrierSerial(serial));
  return Shrink();
}

}  // namespace mm::comm
