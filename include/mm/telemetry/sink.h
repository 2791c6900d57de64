// The per-node telemetry wiring handed down the stack (Service →
// NodeRuntime → BufferManager → TierStore, and Service → Vector): two
// non-owning pointers plus the node id. Components keep a NodeSink by
// value and resolve metric handles from it once at construction.
//
// NodeSink::Dummy() points at shared never-reported instances, so
// components constructed outside a Service (unit tests, standalone
// benches) need no null checks anywhere. There is one telemetry build:
// every metric behind a sink is live.
#pragma once

#include "mm/telemetry/metrics.h"
#include "mm/telemetry/trace.h"

namespace mm::telemetry {

struct NodeSink {
  MetricsRegistry* metrics = nullptr;
  TraceRecorder* trace = nullptr;
  int node = 0;

  static NodeSink Dummy() {
    return NodeSink{&MetricsRegistry::Dummy(), &TraceRecorder::Dummy(), 0};
  }
};

}  // namespace mm::telemetry
