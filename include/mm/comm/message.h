// Message envelope and per-rank mailbox for the in-process message-passing
// substrate (the MPI substitute, DESIGN.md §2). Messages carry the virtual
// delivery time computed by the network model; a receive advances the
// receiver's clock to at least that time.
//
// Reliability (DESIGN.md §13): every point-to-point message carries a
// per-channel sequence number. The link layer may deliver duplicates (fault
// injection); Deposit drops any copy whose sequence was already accepted,
// so the application sees exactly-once delivery. Receives are cancellable:
// the failure detector cancels a wait whose peers are all dead instead of
// blocking forever.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "mm/sim/virtual_clock.h"
#include "mm/util/mutex.h"

namespace mm::comm {

/// Wildcard source for Recv, like MPI_ANY_SOURCE.
inline constexpr int kAnySource = -1;

struct Message {
  int src = 0;
  int tag = 0;
  /// Per (src, dst) channel sequence number; 0 = unsequenced (never
  /// deduped). Retransmitted/duplicated copies share the original's seq.
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;
  sim::SimTime delivered = 0.0;
  /// Causal trace header (DESIGN.md §11): `trace_id` is the flow minted
  /// for this message by the sender, so the receiver can link its recv
  /// span into the same Perfetto flow; `parent_span` carries the flow
  /// that was ambient at the send site (0 = none) for offline causality.
  /// Plain integers, not telemetry types: the header must exist in both
  /// telemetry build modes. Retransmits copy the original's ids, and the
  /// (src, seq) dedup above already guarantees at most one recv span per
  /// logical message.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

/// One rank's inbox. Thread-safe: any rank may deposit; only the owner pops.
class Mailbox {
 public:
  /// Delivers `msg`, deduping by (src, seq): a duplicate of an
  /// already-accepted sequence number is dropped and counted. Returns
  /// whether the message was accepted.
  bool Deposit(Message msg) {
    bool accepted = true;
    {
      MutexLock lock(mu_);
      if (msg.seq != 0) {
        std::uint64_t& last = last_seq_[msg.src];
        if (msg.seq <= last) {
          accepted = false;
        } else {
          last = msg.seq;
        }
      }
      if (accepted) {
        messages_.push_back(std::move(msg));
      } else {
        ++dups_dropped_;
      }
    }
    cv_.NotifyAll();
    return accepted;
  }

  /// Blocks until a message from `src` (or any source) with `tag` arrives.
  /// Unbounded; prefer TakeWhere with a cancellation predicate on paths
  /// that must survive peer death.
  Message Take(int src, int tag) {
    Message msg;
    // With no cancellation predicate TakeWhere can only return true.
    (void)TakeWhere(
        [src, tag](const Message& m) {
          return (src == kAnySource || m.src == src) && m.tag == tag;
        },
        nullptr, &msg);
    return msg;
  }

  /// Blocks until a queued message satisfies `match`, or `cancelled`
  /// becomes true with no matching message queued. Queued matches win over
  /// cancellation, so a message deposited before its sender died is still
  /// consumed. Returns true when `*out` holds a message, false on
  /// cancellation. Wake-ups come from Deposit and Interrupt.
  bool TakeWhere(const std::function<bool(const Message&)>& match,
                 const std::function<bool()>& cancelled, Message* out) {
    MutexLock lock(mu_);
    while (true) {
      for (auto it = messages_.begin(); it != messages_.end(); ++it) {
        if (match(*it)) {
          *out = std::move(*it);
          messages_.erase(it);
          return true;
        }
      }
      if (cancelled != nullptr && cancelled()) return false;
      cv_.Wait(lock);
    }
  }

  /// Wakes every blocked TakeWhere so it re-evaluates its cancellation
  /// predicate (called by World::KillRank / Revoke).
  void Interrupt() { cv_.NotifyAll(); }

  /// Fencing: drops every queued message (stale traffic that must not leak
  /// into the recovered epoch). Returns the number of messages purged.
  std::size_t Purge() {
    MutexLock lock(mu_);
    std::size_t purged = messages_.size();
    messages_.clear();
    return purged;
  }

  /// Non-blocking probe: true if a matching message is queued.
  bool Probe(int src, int tag) const {
    MutexLock lock(mu_);
    for (const auto& msg : messages_) {
      if ((src == kAnySource || msg.src == src) && msg.tag == tag) return true;
    }
    return false;
  }

  std::size_t size() const {
    MutexLock lock(mu_);
    return messages_.size();
  }

  /// Duplicate deliveries dropped by sequence-number dedup.
  std::uint64_t dups_dropped() const {
    MutexLock lock(mu_);
    return dups_dropped_;
  }

 private:
  // mm-verify: leaf-lock(mailbox queue state only, never calls out while held)
  mutable Mutex mu_;
  CondVar cv_;
  std::list<Message> messages_ MM_GUARDED_BY(mu_);
  std::unordered_map<int, std::uint64_t> last_seq_ MM_GUARDED_BY(mu_);
  std::uint64_t dups_dropped_ MM_GUARDED_BY(mu_) = 0;
};

}  // namespace mm::comm
