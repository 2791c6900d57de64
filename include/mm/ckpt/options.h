// Checkpoint/restore configuration (DESIGN.md §12). Kept dependency-free so
// core/options.h can embed it without pulling the ckpt subsystem in.
#pragma once

#include <string>

namespace mm::ckpt {

/// Options for the mm::ckpt subsystem. The subsystem is enabled by pointing
/// `dir` at a directory: per-node redo journals (`journal.<node>.mmj`) and
/// epoch manifests (`<tag>.mmck`) live there.
struct CkptOptions {
  /// Checkpoint directory; empty disables journaling and Checkpoint/Restore.
  /// When set, every stager flush appends a redo record to the node's
  /// journal before the in-place backend write, making flushes page-atomic
  /// under crashes.
  std::string dir;

  bool enabled() const { return !dir.empty(); }
};

}  // namespace mm::ckpt
