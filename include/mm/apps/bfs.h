// Graph500-style breadth-first search (the repo's first irregular-access
// app, PR 7). A synthetic R-MAT graph is built into a CSR laid out across
// two MegaMmap vectors (row offsets + column indices); the BFS kernel then
// stresses random, read-only page touches with no useful spatial locality,
// where every pcache miss is a page fault.
//
//   * GenerateRmat  — deterministic R-MAT edge list (Graph500 kernel 0);
//   * BuildCsr      — in-memory CSR (shared by reference and loader);
//   * MegaBfs       — level-synchronous BFS over CSR-in-mm::Vector,
//                     collective over all ranks, TEPS on the virtual clock;
//   * ReferenceBfs  — single-threaded in-memory traversal, the ground
//                     truth MegaBfs must match depth-for-depth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mm/comm/communicator.h"
#include "mm/core/service.h"

namespace mm::apps {

/// R-MAT generator knobs (Graph500 defaults: A=.57 B=.19 C=.19 D=.05).
struct RmatConfig {
  int scale = 10;          // 2^scale vertices
  int edge_factor = 16;    // edges = edge_factor * vertices
  double a = 0.57, b = 0.19, c = 0.19;  // d = 1 - a - b - c
  std::uint64_t seed = 1;
};

struct RmatEdge {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
};

/// Deterministic in cfg.seed. Self-loops and duplicates are kept, exactly
/// as Graph500 kernel 0 emits them (CSR construction tolerates both).
std::vector<RmatEdge> GenerateRmat(const RmatConfig& cfg);

/// In-memory CSR of an undirected view of the edge list (each edge inserted
/// in both directions; self-loops once). rows has n_vertices+1 entries.
struct Csr {
  std::uint64_t n_vertices = 0;
  std::vector<std::uint64_t> rows;
  std::vector<std::uint64_t> cols;
};

Csr BuildCsr(const std::vector<RmatEdge>& edges, std::uint64_t n_vertices);

struct BfsConfig {
  std::uint64_t source = 0;
  /// MegaMmap knobs for the two CSR vectors.
  std::uint64_t page_size = 16 * 1024;
  std::uint64_t pcache_bytes = 256 * 1024;
  /// Key prefix the CSR vectors are created under (rows/cols suffixes).
  std::string key_prefix = "mem://bfs";
};

struct BfsResult {
  /// depth[v] = hops from the source, or kUnreached.
  std::vector<std::int64_t> depth;
  std::uint64_t vertices_visited = 0;
  /// Directed edge traversals performed (both directions of the CSR).
  std::uint64_t edges_traversed = 0;
  /// Traversed edges per simulated second (the Graph500 metric), on the
  /// virtual clock so it is machine-independent.
  double teps = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t faults = 0;  // rank-local page faults in the BFS kernel
};

inline constexpr std::int64_t kBfsUnreached = -1;

/// Ground truth: single-threaded BFS over the in-memory CSR.
std::vector<std::int64_t> ReferenceBfs(const Csr& csr, std::uint64_t source);

/// MegaMmap BFS. Collective over all ranks of `comm`: rank 0 loads `csr`
/// into two shared vectors (write phase), everyone flips them read-only,
/// then each rank expands the frontier vertices it owns (PGAS split) and
/// the newly-discovered frontier is exchanged per level. Deterministic:
/// depths equal ReferenceBfs exactly regardless of rank count.
BfsResult MegaBfs(core::Service& service, comm::Communicator& comm,
                  const Csr& csr, const BfsConfig& cfg);

}  // namespace mm::apps
