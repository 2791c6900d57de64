// Causal-flow integrity under network fault injection (DESIGN.md §11, §13).
// Every logical message is one trace flow: a msg_send async origin on the
// sender, a msg_recv terminal hop on the receiver. Link faults retransmit
// and duplicate wire copies, but retransmits happen below the message layer
// and duplicates are dedup'd by (src, seq) in the mailbox — so the trace
// must still show exactly one origin and one terminal per flow, no
// duplicate span ids, and no dangling flow references.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>

#include "mm/comm/communicator.h"
#include "mm/comm/launch.h"
#include "mm/sim/cluster.h"
#include "mm/sim/fault.h"
#include "mm/telemetry/trace.h"

namespace mm {
namespace {

std::uint64_t FaultSeed() {
  const char* env = std::getenv("MM_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

struct FlowTally {
  int origins = 0;    // flow_ph 's' or 'a'
  int terminals = 0;  // flow_ph 'f' (or a sync origin, which closes itself)
  int hops = 0;
};

// Mirrors ci/validate_trace.py: per flow, exactly one origin and exactly
// one closing event; span ids unique across the whole trace.
void CheckFlowIntegrity(const std::vector<telemetry::TraceEvent>& events) {
  std::map<std::uint64_t, FlowTally> flows;
  std::set<std::uint64_t> span_ids;
  for (const auto& ev : events) {
    if (ev.span_id != 0) {
      EXPECT_TRUE(span_ids.insert(ev.span_id).second)
          << "duplicate span_id " << ev.span_id << " (" << ev.name << ")";
    }
    if (ev.flow_id == 0) continue;
    FlowTally& t = flows[ev.flow_id];
    switch (ev.flow_ph) {
      case 's':  // sync origin opens and closes the flow itself
        ++t.origins;
        ++t.terminals;
        break;
      case 'a':
        ++t.origins;
        break;
      case 'f':
        ++t.terminals;
        ++t.hops;
        break;
      case 't':
        ++t.hops;
        break;
      default:
        ADD_FAILURE() << "span " << ev.name << " in flow " << ev.flow_id
                      << " has invalid flow_ph " << int(ev.flow_ph);
    }
  }
  EXPECT_FALSE(flows.empty());
  for (const auto& [id, t] : flows) {
    EXPECT_EQ(t.origins, 1) << "flow " << id;
    EXPECT_EQ(t.terminals, 1) << "flow " << id << " (dangling or duplicated)";
  }
}

TEST(TraceFlowFaults, DuplicatedMessagesKeepOneSpanPerFlow) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  sim::NetFaultSpec spec;
  spec.dup_rate = 1.0;  // every message delivered twice
  cluster->network().ConfigureFaults(spec, FaultSeed());
  telemetry::TraceRecorder rec(1 << 12);
  rec.set_enabled(true);
  constexpr int kMsgs = 8;
  auto result = comm::RunRanks(*cluster, 2, 1, [&](comm::RankContext& ctx) {
    if (ctx.rank() == 0) ctx.world().set_trace(&rec);
    comm::Communicator comm(&ctx);
    comm.Barrier();  // both ranks see the recorder before any traced send
    if (ctx.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) comm.SendValue<int>(1, /*tag=*/3, i);
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        EXPECT_EQ(comm.RecvValue<int>(0, /*tag=*/3), i);
      }
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(cluster->network().duplicates(),
            static_cast<std::uint64_t>(kMsgs));

  auto events = rec.Snapshot();
  int sends = 0, recvs = 0;
  for (const auto& ev : events) {
    if (ev.name == "msg_send") ++sends;
    if (ev.name == "msg_recv") ++recvs;
  }
  // One origin per logical message even though the wire carried two
  // copies, and dedup kept the terminal unique.
  EXPECT_EQ(sends, kMsgs);
  EXPECT_EQ(recvs, kMsgs);
  CheckFlowIntegrity(events);
}

TEST(TraceFlowFaults, DropsAndDupsNeverDangleFlows) {
  auto cluster = sim::Cluster::PaperTestbed(2);
  sim::NetFaultSpec spec;
  spec.drop_rate = 0.4;  // retransmits below the message layer
  spec.dup_rate = 0.4;
  cluster->network().ConfigureFaults(spec, FaultSeed());
  telemetry::TraceRecorder rec(1 << 12);
  rec.set_enabled(true);
  constexpr int kRounds = 16;
  auto result = comm::RunRanks(*cluster, 4, 2, [&](comm::RankContext& ctx) {
    if (ctx.rank() == 0) ctx.world().set_trace(&rec);
    comm::Communicator comm(&ctx);
    comm.Barrier();
    // Ring exchange: every rank both sends and receives each round, so
    // every flow produced under faults must resolve to origin+terminal.
    const int next = (ctx.rank() + 1) % comm.size();
    const int prev = (ctx.rank() + comm.size() - 1) % comm.size();
    for (int i = 0; i < kRounds; ++i) {
      if (ctx.rank() % 2 == 0) {
        comm.SendValue<int>(next, /*tag=*/5, ctx.rank() * 100 + i);
        // Only the flow spans matter here; the odd ranks assert values.
        (void)comm.RecvValue<int>(prev, /*tag=*/5);
      } else {
        EXPECT_EQ(comm.RecvValue<int>(prev, /*tag=*/5),
                  prev * 100 + i);
        comm.SendValue<int>(next, /*tag=*/5, ctx.rank() * 100 + i);
      }
    }
  });
  ASSERT_TRUE(result.ok()) << result.error;
  // The plan actually fired: wire-level redundancy existed, yet below we
  // require exactly one span pair per logical message.
  EXPECT_GT(cluster->network().retransmits() + cluster->network().duplicates(),
            0u);
  CheckFlowIntegrity(rec.Snapshot());
}

}  // namespace
}  // namespace mm
