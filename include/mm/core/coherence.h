// Coherence policies (paper Fig. 3 and §III-C). The policy is a property of
// a vector's current phase and may change at synchronization points
// (ChangePhase); leaving read-only invalidates all replicas.
#pragma once

#include <cstdint>

namespace mm::core {

enum class CoherenceMode : std::uint8_t {
  /// Read/Write Local: every process touches a non-overlapping region; only
  /// modified bytes ship on eviction, so no cross-process conflict exists.
  kLocal = 0,
  /// Read Only Global: data is immutable; pages replicate freely into the
  /// pcache and nearby scache partitions to improve availability.
  kReadOnlyGlobal = 1,
  /// Write Only Global: concurrent writers; commits to the same page run
  /// on its owner node's runtime, one at a time, in call order.
  kWriteOnlyGlobal = 2,
  /// Append Only Global: like write-only, plus atomic tail extension.
  kAppendOnlyGlobal = 3,
  /// Read, Write, Append Global: strongest (and default) mode. Single-page
  /// transactions are atomic; multi-page transactions need app-level locks.
  kReadWriteGlobal = 4,
};

const char* CoherenceModeName(CoherenceMode mode);

/// True when the mode permits replication of pages across nodes.
inline bool AllowsReplication(CoherenceMode mode) {
  return mode == CoherenceMode::kReadOnlyGlobal;
}

/// True when writes under this mode must be ordered through the owner
/// node's runtime.
inline bool RequiresOrderedWrites(CoherenceMode mode) {
  return mode == CoherenceMode::kWriteOnlyGlobal ||
         mode == CoherenceMode::kAppendOnlyGlobal ||
         mode == CoherenceMode::kReadWriteGlobal;
}

}  // namespace mm::core
