#include "mm/apps/bfs.h"

#include <algorithm>
#include <deque>

#include "mm/core/vector.h"
#include "mm/util/hash.h"

namespace mm::apps {

namespace {

/// Counter-mode PRNG on MixU64: deterministic across platforms (no
/// distribution objects, whose rounding is implementation-defined).
double UnitReal(std::uint64_t seed, std::uint64_t ctr) {
  return static_cast<double>(MixU64(seed ^ MixU64(ctr)) >> 11) * 0x1.0p-53;
}

}  // namespace

std::vector<RmatEdge> GenerateRmat(const RmatConfig& cfg) {
  const std::uint64_t n = 1ULL << cfg.scale;
  const std::uint64_t m = n * static_cast<std::uint64_t>(cfg.edge_factor);
  std::vector<RmatEdge> edges;
  edges.reserve(m);
  std::uint64_t ctr = 0;
  for (std::uint64_t e = 0; e < m; ++e) {
    std::uint64_t src = 0, dst = 0;
    // One quadrant choice per bit of the vertex id (Graph500 kernel 0).
    for (int bit = 0; bit < cfg.scale; ++bit) {
      double r = UnitReal(cfg.seed, ctr++);
      std::uint64_t s = 0, d = 0;
      if (r < cfg.a) {
        // top-left: (0, 0)
      } else if (r < cfg.a + cfg.b) {
        d = 1;
      } else if (r < cfg.a + cfg.b + cfg.c) {
        s = 1;
      } else {
        s = 1;
        d = 1;
      }
      src = (src << 1) | s;
      dst = (dst << 1) | d;
    }
    edges.push_back(RmatEdge{src, dst});
  }
  return edges;
}

Csr BuildCsr(const std::vector<RmatEdge>& edges, std::uint64_t n_vertices) {
  Csr csr;
  csr.n_vertices = n_vertices;
  csr.rows.assign(n_vertices + 1, 0);
  // Undirected view: count both directions; self-loops once.
  for (const RmatEdge& e : edges) {
    csr.rows[e.src + 1]++;
    if (e.src != e.dst) csr.rows[e.dst + 1]++;
  }
  for (std::uint64_t v = 0; v < n_vertices; ++v) {
    csr.rows[v + 1] += csr.rows[v];
  }
  csr.cols.resize(csr.rows[n_vertices]);
  std::vector<std::uint64_t> cursor(csr.rows.begin(), csr.rows.end() - 1);
  for (const RmatEdge& e : edges) {
    csr.cols[cursor[e.src]++] = e.dst;
    if (e.src != e.dst) csr.cols[cursor[e.dst]++] = e.src;
  }
  // Sorted adjacency makes the layout deterministic regardless of edge
  // order (and friendlier to the per-vertex sequential run in the kernel).
  for (std::uint64_t v = 0; v < n_vertices; ++v) {
    std::sort(csr.cols.begin() + csr.rows[v], csr.cols.begin() + csr.rows[v + 1]);
  }
  return csr;
}

std::vector<std::int64_t> ReferenceBfs(const Csr& csr, std::uint64_t source) {
  std::vector<std::int64_t> depth(csr.n_vertices, kBfsUnreached);
  std::deque<std::uint64_t> q;
  depth[source] = 0;
  q.push_back(source);
  while (!q.empty()) {
    std::uint64_t v = q.front();
    q.pop_front();
    for (std::uint64_t i = csr.rows[v]; i < csr.rows[v + 1]; ++i) {
      std::uint64_t w = csr.cols[i];
      if (depth[w] == kBfsUnreached) {
        depth[w] = depth[v] + 1;
        q.push_back(w);
      }
    }
  }
  return depth;
}

BfsResult MegaBfs(core::Service& service, comm::Communicator& comm,
                  const Csr& csr, const BfsConfig& cfg) {
  comm::RankContext& ctx = comm.ctx();
  const std::uint64_t n = csr.n_vertices;
  const std::uint64_t m = csr.cols.size();

  core::VectorOptions vo;
  vo.nonvolatile = false;
  vo.page_size = cfg.page_size;
  vo.pcache_bytes = cfg.pcache_bytes;
  core::Vector<std::uint64_t> rows(service, ctx, cfg.key_prefix + "/rows",
                                   n + 1, vo);
  core::Vector<std::uint64_t> cols(service, ctx, cfg.key_prefix + "/cols",
                                   std::max<std::uint64_t>(m, 1), vo);

  // ---- load phase: rank 0 writes the CSR, chunked to the cache bound ----
  if (comm.rank() == 0) {
    auto store = [&](core::Vector<std::uint64_t>& vec,
                     const std::vector<std::uint64_t>& src) {
      const std::uint64_t chunk = vec.MaxSpanElems();
      for (std::uint64_t lo = 0; lo < src.size(); lo += chunk) {
        std::uint64_t hi = std::min<std::uint64_t>(src.size(), lo + chunk);
        auto span = vec.WriteSpan(lo, hi);
        for (std::uint64_t i = lo; i < hi; ++i) span[i] = src[i];
      }
      vec.Commit();
    };
    store(rows, csr.rows);
    store(cols, csr.cols);
  }
  comm.Barrier();
  // The graph is immutable from here: read-only coherence replicates every
  // remotely faulted page into the reader's scache.
  rows.ChangePhase(core::CoherenceMode::kReadOnlyGlobal);
  cols.ChangePhase(core::CoherenceMode::kReadOnlyGlobal);
  comm.Barrier();

  const std::uint64_t faults_before = rows.faults() + cols.faults();
  const double t0 = ctx.clock().now();

  // ---- level-synchronous expansion ----
  // Every rank holds the full depth array (O(V) DRAM; the out-of-core
  // object is the O(E) graph) and expands only the frontier vertices it
  // owns, so the CSR page reads spread across ranks. The newly-discovered
  // sets are exchanged and applied identically everywhere — depths match
  // the reference traversal exactly, at any rank count.
  BfsResult result;
  result.depth.assign(n, kBfsUnreached);
  result.depth[cfg.source] = 0;
  std::vector<std::uint64_t> frontier{cfg.source};
  const int nprocs = comm.size();
  std::uint64_t local_traversed = 0;
  std::int64_t level = 0;
  while (!frontier.empty()) {
    std::vector<std::uint64_t> discovered;
    // The frontier is unordered vertex ids: random, read-only page touches,
    // each miss one ReadPage whose remote fetch leaves a replica behind.
    // No transaction: the access sequence is data-dependent, so there is
    // nothing useful to declare to the prefetcher.
    for (std::uint64_t v : frontier) {
      if (static_cast<int>(v % nprocs) != comm.rank()) continue;
      std::uint64_t lo = rows.Read(v);
      std::uint64_t hi = rows.Read(v + 1);
      local_traversed += hi - lo;
      for (std::uint64_t i = lo; i < hi; ++i) {
        std::uint64_t w = cols.Read(i);
        if (result.depth[w] == kBfsUnreached) {
          // Tentative: dedup after the exchange so every rank applies
          // the same set in the same order.
          discovered.push_back(w);
        }
      }
    }
    std::vector<std::uint64_t> all = comm.AllGatherV(discovered);
    frontier.clear();
    ++level;
    for (std::uint64_t w : all) {
      if (result.depth[w] == kBfsUnreached) {
        result.depth[w] = level;
        frontier.push_back(w);
      }
    }
    std::sort(frontier.begin(), frontier.end());
  }

  // Cluster-wide totals; the virtual clock already advanced through every
  // rank's faults and transfers.
  std::vector<std::uint64_t> totals{local_traversed};
  comm.AllReduce(totals,
                 [](std::uint64_t a, std::uint64_t b) { return a + b; });
  result.edges_traversed = totals[0];
  for (std::int64_t d : result.depth) {
    if (d != kBfsUnreached) ++result.vertices_visited;
  }
  result.sim_seconds = ctx.clock().now() - t0;
  result.teps = result.sim_seconds > 0
                    ? static_cast<double>(result.edges_traversed) /
                          result.sim_seconds
                    : 0.0;
  result.faults = rows.faults() + cols.faults() - faults_before;
  return result;
}

}  // namespace mm::apps
