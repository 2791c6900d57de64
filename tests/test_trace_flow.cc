// Causal-flow integrity under network fault injection (DESIGN.md §11, §13),
// and for an async flush's fan-out to its owners.
// Every logical message is one trace flow: a msg_send async origin on the
// sender, a msg_recv terminal hop on the receiver. Link faults retransmit
// and duplicate wire copies, but retransmits happen below the message layer
// and duplicates are dedup'd by (src, seq) in the mailbox — so the trace
// must still show exactly one origin and one terminal per flow, no
// duplicate span ids, and no dangling flow references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>

#include "mm/comm/communicator.h"
#include "mm/comm/launch.h"
#include "mm/core/service.h"
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

// An async flush (Vector::FlushAsync's path) of dirty pages on two owners
// is one flow: its async origin, a stage_out hop per owner, and one
// terminal hop that ends no earlier than any hop starts.
TEST(TraceFlowFlush, AsyncFlushClosesItsFlow) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mm_test_trace_flow_flush";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto cluster = sim::Cluster::PaperTestbed(2);
  core::ServiceOptions so;
  so.tier_grants = {{sim::TierKind::kDram, MEGABYTES(16)}};
  core::Service svc(cluster.get(), so);
  constexpr std::uint64_t kPage = 4096, kPages = 8;
  core::VectorOptions vo;
  vo.page_size = kPage;
  auto meta = svc.RegisterVector("posix://" + (dir / "v.bin").string(), 1, vo,
                                 kPages * kPage);
  ASSERT_TRUE(meta.ok());
  svc.SetPgasHint(**meta, {kPages * kPage, /*nprocs=*/2,
                           /*ranks_per_node=*/1});
  sim::SimTime t = 0.0;
  for (std::uint64_t p = 0; p < kPages; ++p) {
    auto out = svc.WriteRegion(**meta, p, 0,
                               std::vector<std::uint8_t>(kPage, 0x3c), 0, t);
    ASSERT_TRUE(out.status.ok()) << "page " << p;
    t = std::max(t, out.done);
  }
  svc.trace().set_enabled(true);
  ASSERT_TRUE(svc.FlushVector(**meta, 0, t, /*done=*/nullptr).ok());
  const std::vector<telemetry::TraceEvent> events = svc.trace().Snapshot();

  CheckFlowIntegrity(events);
  std::set<std::uint64_t> flows;
  int stage_outs = 0;
  double last_hop_us = 0, terminal_end_us = -1;
  for (const auto& ev : events) {
    if (ev.flow_id == 0) continue;
    flows.insert(ev.flow_id);
    if (ev.name == "flush") {
      EXPECT_EQ(ev.flow_ph, 'a');
    }
    if (ev.flow_ph == 't') last_hop_us = std::max(last_hop_us, ev.ts_us);
    if (ev.flow_ph == 'f') terminal_end_us = ev.ts_us + ev.dur_us;
    stage_outs += ev.name == "stage_out";
  }
  EXPECT_EQ(flows.size(), 1u);
  EXPECT_EQ(stage_outs, 2);  // one batch per owner
  EXPECT_GE(terminal_end_us, last_hop_us);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mm
