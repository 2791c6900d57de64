// Index read-path telemetry (DESIGN.md §11 "mm.index.*", §15). Handles are
// resolved once per tree at construction from the node's sink. Every node
// read is an owner `Vector::Read`.
#pragma once

#include "mm/telemetry/sink.h"

namespace mm::index {

struct IndexMetrics {
  telemetry::Counter* descents = nullptr;        // root-to-leaf walks
  telemetry::Counter* node_reads = nullptr;      // node snapshots taken
  telemetry::Counter* restarts = nullptr;        // descent restarts (any cause)
  telemetry::Counter* smos = nullptr;            // splits + root growths

  IndexMetrics() = default;
  explicit IndexMetrics(const telemetry::NodeSink& sink);
};

}  // namespace mm::index
