#include "mm/comm/dlock.h"

#include "mm/util/status.h"

namespace mm::comm {

namespace {
// Lock protocol messages are small control packets.
constexpr std::uint64_t kControlBytes = 64;
}  // namespace

void DistributedLock::Acquire(RankContext& ctx) {
  // Request reaches the home node...
  auto req = cluster_->network().Transfer(ctx.clock().now(), ctx.node(),
                                          home_node_, kControlBytes);
  mu_.Lock();  // real mutual exclusion; blocks until predecessor releases
  // ...the grant is issued at the first instant no booked hold covers.
  requested_ = req.delivered;
  granted_ = holds_.EarliestFit(requested_, 0.0);
  auto grant = cluster_->network().Transfer(granted_, home_node_, ctx.node(),
                                            kControlBytes);
  ctx.clock().AdvanceTo(grant.delivered);
}

void DistributedLock::Release(RankContext& ctx) {
  auto rel = cluster_->network().Transfer(ctx.clock().now(), ctx.node(),
                                          home_node_, kControlBytes);
  const sim::SimTime len = rel.delivered - granted_;
  const sim::SimTime start = holds_.EarliestFit(requested_, len);
  MM_CHECK(holds_.BookIfEarliest(start, requested_, len));
  // The hold outgrew its gap: it runs after the booking it would have
  // overlapped, as if its grant had waited for it.
  if (start > granted_) {
    ctx.clock().AdvanceTo(ctx.clock().now() + (start - granted_));
  }
  mu_.Unlock();
}

}  // namespace mm::comm
