// mm::Vector<T> — the public MegaMmap shared-memory vector (paper §III-A,
// Listing 1). Presents an out-of-core, distributed, optionally persistent
// dataset as a byte-addressable array:
//
//   mm::core::Vector<Point3D> pts(svc, ctx, "spar:///points.parquet:f4x3");
//   pts.BoundMemory(MEGABYTES(1));
//   pts.Pgas(rank, nprocs);
//   auto& tx = pts.SeqTxBegin(pts.local_off(), pts.local_size(),
//                             MM_READ_ONLY);
//   for (const Point3D& p : tx) { ... }
//   pts.TxEnd();
//
// Element access faults pages into a per-process pcache; dirty fragments
// are committed copy-on-write through asynchronous runtime commits; the
// transaction drives Algorithm 1's eviction/prefetching.
//
// Hot loops should use the Span API (ReadSpan/WriteSpan): a span resolves
// each overlapping page once, pins the frames against eviction for its
// lifetime, charges the virtual clock in one batched Compute call, and
// marks dirty ranges per page — element access inside the span is plain
// pointer arithmetic (§III-E's amortized-resolution claim).
//
// Thread-affinity: a Vector instance belongs to one rank. Different ranks
// construct their own Vector with the same key to share the object.
#pragma once

#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>

#include "mm/comm/world.h"
#include "mm/core/pcache.h"
#include "mm/core/prefetcher.h"
#include "mm/core/service.h"
#include "mm/core/transaction.h"

namespace mm::core {

template <typename T>
class Vector {
  static_assert(std::is_trivially_copyable_v<T>,
                "mm::Vector elements must be trivially copyable (provide a "
                "POD mirror or serialize into one)");

 public:
  /// Connects to (or creates) the shared vector named `key`. For
  /// nonvolatile vectors backed by an existing object, the size comes from
  /// the backend; otherwise `count` elements are allocated (zero-filled on
  /// first touch).
  Vector(Service& service, comm::RankContext& ctx, const std::string& key,
         std::uint64_t count = 0, VectorOptions options = {})
      : service_(&service), ctx_(&ctx), options_(options) {
    auto meta = service.RegisterVector(key, sizeof(T), options, count);
    if (!meta.ok()) {
      throw std::runtime_error("mm::Vector: " + meta.status().ToString());
    }
    meta_ = *meta;
    pcache_ = std::make_unique<PCache>(
        meta_->page_bytes, meta_->elems_per_page(), options_.pcache_bytes);
    epp_ = meta_->elems_per_page();
    if (epp_ > 0 && (epp_ & (epp_ - 1)) == 0) {
      epp_shift_ = std::countr_zero(epp_);
      epp_mask_ = epp_ - 1;
    }
    const auto& costs = ctx_->costs();
    scalar_access_cost_s_ = costs.memory_access_s + costs.mm_access_overhead_s;
    // Metric handles resolved once; the access paths below only do relaxed
    // atomic adds, and only at frame-resolution granularity (the last-page
    // cache keeps per-element accesses metric-free).
    telemetry::NodeSink tel = service.telemetry_sink(ctx.node());
    tel_ = tel;
    hit_count_ = tel.metrics->GetCounter("mm.pcache.hit_count");
    miss_count_ = tel.metrics->GetCounter("mm.pcache.miss_count");
    eviction_count_ = tel.metrics->GetCounter("mm.pcache.eviction_count");
    writeback_bytes_ = tel.metrics->GetCounter("mm.pcache.writeback_bytes");
    prefetch_issued_ = tel.metrics->GetCounter("mm.prefetch.issued_count");
    prefetch_useful_ = tel.metrics->GetCounter("mm.prefetch.useful_count");
    staged_count_ = tel.metrics->GetCounter("mm.prefetch.staged_count");
  }

  // Paper semantics: vectors are NOT destroyed in the destructor; call
  // Destroy() explicitly (avoids races between processes finishing at
  // different times).
  ~Vector() = default;
  Vector(const Vector&) = delete;
  Vector& operator=(const Vector&) = delete;

  /// Caps the DRAM this process may spend caching this vector (Vec.Max).
  void BoundMemory(std::uint64_t bytes) {
    options_.pcache_bytes = bytes;
    pcache_->set_capacity(bytes);
  }

  /// Partitions elements evenly across `nprocs` processes (PGAS-style).
  /// Also registers the partition as a placement hint so unplaced pages
  /// first-touch onto the node of the rank that owns them.
  void Pgas(int rank, int nprocs) {
    MM_CHECK(nprocs > 0 && rank >= 0 && rank < nprocs);
    pgas_rank_ = rank;
    pgas_nprocs_ = nprocs;
    service_->SetPgasHint(
        *meta_, VectorMeta::PgasHint{size(), nprocs,
                                     ctx_->world().ranks_per_node()});
  }

  std::uint64_t local_off() const {
    std::uint64_t n = size(), p = pgas_nprocs_, r = pgas_rank_;
    std::uint64_t base = n / p, rem = n % p;
    return r * base + std::min<std::uint64_t>(r, rem);
  }
  std::uint64_t local_size() const {
    std::uint64_t n = size(), p = pgas_nprocs_, r = pgas_rank_;
    std::uint64_t base = n / p, rem = n % p;
    return base + (r < rem ? 1 : 0);
  }

  std::uint64_t size() const { return meta_->num_elements(); }
  std::uint64_t size_bytes() const {
    return meta_->size_bytes.load(std::memory_order_relaxed);
  }
  std::uint64_t page_bytes() const { return meta_->page_bytes; }
  std::uint64_t elems_per_page() const { return epp_; }
  /// Largest span window that stays comfortably inside the cache bound:
  /// half the frame budget (at least one page) worth of elements. Hot
  /// loops chunk their scans by this.
  std::uint64_t MaxSpanElems() const {
    std::uint64_t frames = pcache_->capacity() / meta_->page_bytes;
    return std::max<std::uint64_t>(frames / 2, 1) * epp_;
  }
  const std::string& key() const { return meta_->key; }
  CoherenceMode mode() const {
    return meta_->mode.load(std::memory_order_relaxed);
  }

  // ---- transactional memory API ----

  /// Iterable view of the active transaction's access sequence.
  class TxHandle;

  /// Declares a sequential scan over elements [off, off+count).
  TxHandle SeqTxBegin(std::uint64_t off, std::uint64_t count,
                      std::uint32_t flags) {
    BeginTx(std::make_unique<SeqTx>(flags, sizeof(T), meta_->elems_per_page(),
                                    off, count));
    return TxHandle(this);
  }

  /// Declares `count` pseudo-random accesses over [lo, hi), reproducible
  /// from `seed`.
  TxHandle RandTxBegin(std::uint64_t lo, std::uint64_t hi, std::uint64_t count,
                       std::uint32_t flags, std::uint64_t seed) {
    BeginTx(std::make_unique<RandTx>(flags, sizeof(T), meta_->elems_per_page(),
                                     lo, hi, count, seed));
    return TxHandle(this);
  }

  /// Declares a strided scan: off, off+stride, ... (count accesses).
  TxHandle StrideTxBegin(std::uint64_t off, std::uint64_t stride,
                         std::uint64_t count, std::uint32_t flags) {
    BeginTx(std::make_unique<StrideTx>(flags, sizeof(T),
                                       meta_->elems_per_page(), off, stride,
                                       count));
    return TxHandle(this);
  }

  /// Installs a user-defined transaction (custom subclass, paper §III-A).
  void TxBegin(std::unique_ptr<Transaction> tx) { BeginTx(std::move(tx)); }

  /// Ends the transaction: commits all unflushed modifications (the commit
  /// is asynchronous in simulated time; in real time it has run, so later
  /// readers observe the writes after the application's synchronization).
  /// Spans created under the transaction must be destroyed first.
  void TxEnd() {
    MM_CHECK_MSG(tx_ != nullptr, "TxEnd without active transaction");
    FlushDirtyFrames(/*retain=*/true);
    tel_.trace->Complete(tx_->writes() ? "tx_write" : "tx_read", "tx",
                         tel_.node, ctx_->rank(), tx_begin_s_,
                         ctx_->clock().now());
    tx_.reset();
  }

  Transaction* active_tx() { return tx_.get(); }

  // ---- span access (hot-loop fast path) ----

  /// A pinned window over elements [lo, hi). While the span lives, every
  /// overlapping page frame is pinned: the prefetcher's eviction pass and
  /// MakeRoom skip it, so raw pointers into the frames stay valid. Element
  /// access is pointer arithmetic — no per-access clock charge, hash
  /// lookup, or transaction bookkeeping (all batched at construction).
  ///
  /// Contract: index arguments must lie in [begin_index(), end_index());
  /// the window should be comfortably smaller than BoundMemory (pinning
  /// more than the cap forces the cache over its budget); spans must not
  /// outlive the Vector, Destroy(), or a ChangePhase().
  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&& o) noexcept
        : vec_(o.vec_),
          lo_(o.lo_),
          hi_(o.hi_),
          first_page_(o.first_page_),
          writable_(o.writable_),
          pages_(std::move(o.pages_)) {
      o.vec_ = nullptr;
      o.pages_.clear();
    }
    Span& operator=(Span&&) = delete;
    ~Span() {
      if (vec_ != nullptr) vec_->ReleaseSpan(*this);
    }

    std::uint64_t begin_index() const { return lo_; }
    std::uint64_t end_index() const { return hi_; }
    std::uint64_t size() const { return hi_ - lo_; }
    bool writable() const { return writable_; }

    /// Access by global element index (must be in [lo, hi); unchecked).
    T& operator[](std::uint64_t i) {
      std::uint64_t elem;
      std::uint64_t page = vec_->PageOf(i, &elem);
      return pages_[page - first_page_][elem];
    }
    const T& operator[](std::uint64_t i) const {
      std::uint64_t elem;
      std::uint64_t page = vec_->PageOf(i, &elem);
      return pages_[page - first_page_][elem];
    }

    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = T;
      using difference_type = std::ptrdiff_t;
      using pointer = T*;
      using reference = T&;

      Iterator(Span* span, std::uint64_t i) : span_(span), i_(i) {}
      T& operator*() const { return (*span_)[i_]; }
      Iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator!=(const Iterator& o) const { return i_ != o.i_; }
      bool operator==(const Iterator& o) const { return i_ == o.i_; }
      std::uint64_t index() const { return i_; }

     private:
      Span* span_;
      std::uint64_t i_;
    };

    Iterator begin() { return Iterator(this, lo_); }
    Iterator end() { return Iterator(this, hi_); }

   private:
    friend class Vector;
    Span(Vector* vec, std::uint64_t lo, std::uint64_t hi, bool writable)
        : vec_(vec), lo_(lo), hi_(hi), writable_(writable) {}

    Vector* vec_;
    std::uint64_t lo_;
    std::uint64_t hi_;
    std::uint64_t first_page_ = 0;
    bool writable_;
    /// Base pointer (element 0) of each pinned overlapping page.
    std::vector<T*> pages_;
  };

  /// Read-only span over [lo, hi): pages are resolved and pinned once, the
  /// clock is charged once, and no element is dirtied.
  Span ReadSpan(std::uint64_t lo, std::uint64_t hi) {
    return MakeSpan(lo, hi, /*writable=*/false);
  }

  /// Writable span over [lo, hi): like ReadSpan, but the covered range of
  /// every page is marked dirty up front (per-page ranges, not per-element
  /// bits), with or without an active transaction. The whole range counts
  /// as written even if the caller stores to only part of it.
  Span WriteSpan(std::uint64_t lo, std::uint64_t hi) {
    return MakeSpan(lo, hi, /*writable=*/true);
  }

  // ---- element access ----

  /// Faulting element access. Under a writing transaction the touched
  /// element is marked dirty. The reference stays valid until the next
  /// MegaMmap call on this vector.
  T& At(std::uint64_t i) {
    MM_CHECK_MSG(i < size(), "mm::Vector index out of range");
    std::uint64_t elem;
    const std::uint64_t page = PageOf(i, &elem);
    PageFrame* frame = TouchFrame(page);
    ctx_->Compute(scalar_access_cost_s_);
    if (tx_ != nullptr) {
      if (tx_->writes()) pcache_->MarkElemDirty(frame, elem);
      tx_->AdvanceTail();
    }
    return *reinterpret_cast<T*>(frame->data.data() + elem * sizeof(T));
  }

  T& operator[](std::uint64_t i) { return At(i); }

  /// Read-only access: never dirties the element even inside a writing
  /// transaction.
  const T& Read(std::uint64_t i) {
    MM_CHECK_MSG(i < size(), "mm::Vector index out of range");
    std::uint64_t elem;
    const std::uint64_t page = PageOf(i, &elem);
    PageFrame* frame = TouchFrame(page);
    ctx_->Compute(scalar_access_cost_s_);
    if (tx_ != nullptr) tx_->AdvanceTail();
    return *reinterpret_cast<const T*>(frame->data.data() + elem * sizeof(T));
  }

  /// Explicit write (dirties the element with or without a transaction).
  void Set(std::uint64_t i, const T& value) {
    MM_CHECK_MSG(i < size(), "mm::Vector index out of range");
    std::uint64_t elem;
    const std::uint64_t page = PageOf(i, &elem);
    PageFrame* frame = TouchFrame(page);
    ctx_->Compute(scalar_access_cost_s_);
    pcache_->MarkElemDirty(frame, elem);
    if (tx_ != nullptr) tx_->AdvanceTail();
    std::memcpy(frame->data.data() + elem * sizeof(T), &value, sizeof(T));
  }

  /// Atomically extends the vector by one element; returns its index.
  std::uint64_t Append(const T& value) {
    std::uint64_t off =
        meta_->size_bytes.fetch_add(sizeof(T), std::memory_order_relaxed);
    std::uint64_t idx = off / sizeof(T);
    Set(idx, value);
    return idx;
  }

  // ---- persistence & lifecycle ----

  /// Synchronously commits this process's modifications to the scache and
  /// stages the vector's dirty pages to the backend. Returns once every
  /// dirty page is durable in its owner's journal (or, without a journal,
  /// written in place); the in-place writes finish off the clock
  /// (Service::FlushVector).
  void Flush() {
    FlushDirtyFrames(/*retain=*/true);
    sim::SimTime done = ctx_->clock().now();
    Status st =
        service_->FlushVector(*meta_, ctx_->node(), ctx_->clock().now(), &done);
    if (!st.ok()) throw std::runtime_error("Flush: " + st.ToString());
    ctx_->clock().AdvanceTo(done);
  }

  /// Commits this process's local modifications to the shared cache (no
  /// backend staging). Equivalent to the commit half of TxEnd; useful for
  /// non-transactional writes (Append/Set) before a synchronization point.
  void Commit() {
    FlushDirtyFrames(/*retain=*/true);
  }

  /// Commits local modifications and stages dirty pages without stalling
  /// the simulated clock: the staging engine drains in the background
  /// (paper §III-B "MegaMmap actively flushes modified data to storage
  /// during periods of computation"). Real execution still completes the
  /// staging before returning, so every dirty page is durable in its
  /// owner's journal (or written in place) when it returns.
  void FlushAsync() {
    FlushDirtyFrames(/*retain=*/true);
    Status st = service_->FlushVector(*meta_, ctx_->node(),
                                      ctx_->clock().now(), nullptr);
    if (!st.ok()) throw std::runtime_error("FlushAsync: " + st.ToString());
  }

  /// Changes the coherence phase at a synchronization point. Leaving
  /// read-only invalidates replicas. Live spans keep their frames resident
  /// (pinned pages are skipped) but see no invalidation — end spans first.
  void ChangePhase(CoherenceMode new_mode) {
    // Local modifications must be committed under the old phase's rules.
    FlushDirtyFrames(/*retain=*/true);
    sim::SimTime done = ctx_->clock().now();
    Status st = service_->ChangePhase(*meta_, new_mode, ctx_->node(),
                                      ctx_->clock().now(), &done);
    if (!st.ok()) throw std::runtime_error("ChangePhase: " + st.ToString());
    ctx_->clock().AdvanceTo(done);
    // In-flight prefetches were routed and versioned under the old phase;
    // adopting one after the switch could resurrect invalidated data.
    pcache_->DropPendings();
    // Replicas this rank was reading may be gone.
    last_page_ = kNoPage;
    last_frame_ = nullptr;
    for (std::uint64_t page : pcache_->ResidentPages()) {
      if (pcache_->IsPinned(page)) continue;
      PageFrame* f = pcache_->Find(page);
      if (f != nullptr && !f->dirty.Any()) {
        // The retired frame keeps its buffer parked on the free list; the
        // next Insert recycles it through the pool.
        pcache_->Remove(page);
      }
    }
  }

  /// Destroys the shared object (all processes' view of it). Explicit by
  /// design. The backend object is kept unless `remove_backend`.
  void Destroy(bool remove_backend = false) {
    staged_.clear();
    pcache_->Clear();
    last_page_ = kNoPage;
    last_frame_ = nullptr;
    Status st = service_->DestroyVector(*meta_, remove_backend);
    if (!st.ok()) throw std::runtime_error("Destroy: " + st.ToString());
  }

  // ---- stats ----
  std::uint64_t faults() const { return faults_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t prefetches() const { return prefetches_; }
  /// The virtual time this rank's stage-ahead of `page` landed in the
  /// scache while that is still ahead of the rank's clock, else 0.
  sim::SimTime StagedReadyTime(std::uint64_t page) {
    auto it = staged_.find(page);
    if (it == staged_.end()) return 0.0;
    const sim::SimTime ready = it->second;
    if (ready > ctx_->clock().now()) return ready;
    staged_.erase(it);  // the clock is past it for good
    return 0.0;
  }
  PCache& pcache() { return *pcache_; }
  VectorMeta& meta() { return *meta_; }

  // ---- TxHandle / iterator ----

  class TxIterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = T*;
    using reference = T&;

    TxIterator(Vector* vec, std::size_t pos) : vec_(vec), pos_(pos) {}
    T& operator*() {
      return vec_->At(vec_->tx_->ElementAt(pos_));
    }
    TxIterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator!=(const TxIterator& other) const {
      return pos_ != other.pos_;
    }
    bool operator==(const TxIterator& other) const {
      return pos_ == other.pos_;
    }
    std::size_t pos() const { return pos_; }

   private:
    Vector* vec_;
    std::size_t pos_;
  };

  /// Iterating a TxHandle visits the transaction's access sequence:
  /// `for (T& x : tx) ...`.
  class TxHandle {
   public:
    explicit TxHandle(Vector* vec) : vec_(vec) {}
    TxIterator begin() { return TxIterator(vec_, 0); }
    TxIterator end() {
      return TxIterator(vec_, vec_->tx_->TotalAccesses());
    }
    Transaction& tx() { return *vec_->tx_; }

   private:
    Vector* vec_;
  };

 private:
  static constexpr std::uint64_t kNoPage = ~0ULL;

  /// Splits a global element index into (page, elem-in-page). Power-of-two
  /// pages use shift/mask; others pay one division.
  std::uint64_t PageOf(std::uint64_t i, std::uint64_t* elem) const {
    if (epp_shift_ >= 0) {
      *elem = i & epp_mask_;
      return i >> epp_shift_;
    }
    *elem = i % epp_;
    return i / epp_;
  }

  bool TailOnPageBoundary() const {
    std::size_t t = tx_->tail();
    return epp_shift_ >= 0 ? (t & epp_mask_) == 0 : (t % epp_) == 0;
  }

  /// Common access prologue: run the prefetcher at page-boundary ticks and
  /// resolve the frame through the last-page cache (§III-E: iterative
  /// algorithms usually stay within one page for many accesses).
  PageFrame* TouchFrame(std::uint64_t page) {
    // Run the prefetcher BEFORE taking a frame reference: its eviction pass
    // may drop pages (including, for unaligned scans, this one — which then
    // simply refaults below).
    if (tx_ != nullptr && options_.prefetch_depth > 0 && TailOnPageBoundary()) {
      PrefetchStep();
    }
    PageFrame* frame = (page == last_page_ && last_frame_ != nullptr)
                           ? last_frame_
                           : FetchFrame(page);
    last_page_ = page;
    last_frame_ = frame;
    return frame;
  }

  void BeginTx(std::unique_ptr<Transaction> tx) {
    MM_CHECK_MSG(tx_ == nullptr,
                 "nested transactions on one vector are not supported");
    tx_ = std::move(tx);
    tx_begin_s_ = ctx_->clock().now();
    AcquireCoherence();
    if (options_.prefetch_depth > 0 && service_->options().enable_prefetch) {
      PrefetchStep();  // warm the initial window
    }
  }

  /// Acquire semantics at transaction begin: under globally-writable
  /// coherence modes, cached clean pages whose write-version moved on are
  /// dropped so this transaction observes other ranks' committed updates.
  /// Read-only and local modes never invalidate (nobody else wrote); dirty
  /// frames are this rank's own uncommitted data and are kept.
  void AcquireCoherence() {
    CoherenceMode mode = meta_->mode.load(std::memory_order_relaxed);
    if (!tx_->reads() || !RequiresOrderedWrites(mode)) return;
    // Batch the version queries: one coalesced metadata request per home
    // shard instead of a round trip per page.
    std::vector<std::uint64_t> pages;
    std::vector<storage::BlobId> ids;
    for (std::uint64_t page : pcache_->ResidentPages()) {
      if (pcache_->IsPinned(page)) continue;  // live span holds pointers
      PageFrame* frame = pcache_->Find(page);
      if (frame == nullptr || frame->dirty.Any()) continue;
      pages.push_back(page);
      ids.push_back(storage::BlobId{meta_->vector_id, page});
    }
    if (ids.empty()) return;
    sim::SimTime done = ctx_->clock().now();
    auto locs = service_->metadata().LookupBatch(ids, ctx_->node(),
                                                 ctx_->clock().now(), &done);
    ctx_->clock().AdvanceTo(done);
    for (std::size_t i = 0; i < pages.size(); ++i) {
      PageFrame* frame = pcache_->Find(pages[i]);
      if (frame == nullptr) continue;
      std::uint64_t current = locs[i].has_value() ? locs[i]->version : 0;
      if (current != frame->version) {
        pcache_->Remove(pages[i]);  // buffer stays parked on the free list
        if (pages[i] == last_page_) {
          last_page_ = kNoPage;
          last_frame_ = nullptr;
        }
      }
    }
  }

  Span MakeSpan(std::uint64_t lo, std::uint64_t hi, bool writable) {
    MM_CHECK_MSG(lo <= hi && hi <= size(), "mm::Vector span out of range");
    Span span(this, lo, hi, writable);
    if (lo == hi) return span;
    // One prefetcher invocation covers the whole window (the scalar path
    // runs it at every page-boundary access).
    if (tx_ != nullptr && options_.prefetch_depth > 0) PrefetchStep();
    std::uint64_t elem_lo, elem_hi;
    const std::uint64_t first = PageOf(lo, &elem_lo);
    const std::uint64_t last = PageOf(hi - 1, &elem_hi);
    span.first_page_ = first;
    span.pages_.reserve(last - first + 1);
    for (std::uint64_t p = first; p <= last; ++p) {
      PageFrame* frame = FetchFrame(p);
      pcache_->Pin(p);
      span.pages_.push_back(reinterpret_cast<T*>(frame->data.data()));
      if (writable) {
        std::size_t dlo = (p == first) ? elem_lo : 0;
        std::size_t dhi = (p == last) ? elem_hi + 1 : epp_;
        pcache_->MarkDirty(p, dlo, dhi);
      }
    }
    // Batched clock charge: the software overhead is amortized per page
    // instead of per element (the paper's ~2.44%-over-mmap claim).
    const auto& costs = ctx_->costs();
    const std::uint64_t n = hi - lo;
    ctx_->Compute(static_cast<double>(n) * costs.memory_access_s +
                  static_cast<double>(span.pages_.size()) *
                      costs.mm_access_overhead_s);
    if (tx_ != nullptr) tx_->AdvanceTail(n);
    return span;
  }

  void ReleaseSpan(Span& span) {
    const std::uint64_t n_pages = span.pages_.size();
    for (std::uint64_t p = 0; p < n_pages; ++p) {
      pcache_->Unpin(span.first_page_ + p);
    }
  }

  PageFrame* FetchFrame(std::uint64_t page) {
    if (PageFrame* f = pcache_->Find(page)) {
      hit_count_->Inc();
      return f;
    }
    miss_count_->Inc();
    std::vector<std::uint8_t> data;
    std::uint64_t version = 0;
    if (auto pending = pcache_->TakePending(page)) {
      // A demand access adopting an in-flight prefetch is what makes the
      // prefetch useful.
      prefetch_useful_->Inc();
      // A prefetch already fetched this page: the access only stalls for
      // whatever part of the fetch has not overlapped with compute.
      TaskOutcome outcome = std::move(pending->outcome);
      if (!outcome.status.ok()) {
        throw std::runtime_error("prefetch failed: " +
                                 outcome.status.ToString());
      }
      const sim::SimTime done = service_->DeliverPage(
          *meta_, page, pending->owner, ctx_->node(), outcome);
      const sim::SimTime wait_start = ctx_->clock().now();
      ctx_->clock().AdvanceTo(done);
      if (done > wait_start) {
        // The part of the prefetch that did not overlap with compute is a
        // real stall; the critical-path analyzer charges bare cat="fault"
        // spans (no flow) as data-movement wait.
        tel_.trace->Complete("prefetch_wait", "fault", tel_.node,
                             ctx_->rank(), wait_start, done);
      }
      data = std::move(outcome.data);
      version = outcome.version;
    } else {
      // Page fault: one service call (DESIGN.md §6), which serves this
      // node's valid copy or routes the fault to the page's owner.
      ++faults_;
      ctx_->Compute(ctx_->costs().page_fault_soft_s);
      sim::SimTime done = ctx_->clock().now();
      // A page this rank staged ahead is read no earlier than it landed.
      if (!staged_.empty()) done = std::max(done, StagedReadyTime(page));
      auto data_or = service_->ReadPage(*meta_, page, ctx_->node(), done,
                                        &done, &version);
      if (!data_or.ok()) {
        throw std::runtime_error("page fault failed: " +
                                 data_or.status().ToString());
      }
      ctx_->clock().AdvanceTo(done);
      data = std::move(data_or).value();
    }
    MakeRoom();
    std::vector<std::uint8_t> displaced;
    PageFrame* frame = pcache_->Insert(page, std::move(data), &displaced);
    // A recycled frame's previous buffer goes back to the node pool so the
    // zero-alloc fetch loop (DESIGN.md §7) stays closed.
    if (displaced.capacity() > 0) ReleasePageBytes(std::move(displaced));
    frame->version = version;
    return frame;
  }

  /// Evicts until one more page fits under the BoundMemory cap, counting
  /// in-flight prefetches (committed) so they cannot overshoot capacity.
  /// Stops early when everything evictable is pinned by live spans.
  void MakeRoom() {
    while (pcache_->NeedsEviction()) {
      auto victim = pcache_->PickVictim();
      if (!victim.has_value()) {
        // Everything evictable is pinned by live spans: the cache runs over
        // its bound until a span ends.
        break;
      }
      EvictPage(*victim);
    }
  }

  /// Evicts one page; dirty fragments become async WritePartial commits. The
  /// application pays only the copy (paper §III-B "Lifecycle of Modified
  /// Data"). The page buffer returns to the node's pool for the next fetch.
  void EvictPage(std::uint64_t page) {
    // The retired frame stays alive on the pcache free list until the next
    // Insert; its dirty runs are still this rank's to ship.
    PageFrame* frame = pcache_->Remove(page);
    if (frame == nullptr) return;
    if (page == last_page_) {
      last_page_ = kNoPage;
      last_frame_ = nullptr;
    }
    ++evictions_;
    eviction_count_->Inc();
    if (frame->dirty.Any()) {
      ShipDirtyRuns(page, *frame);
    }
    ReleasePageBytes(std::move(frame->data));
  }

  /// Sends each dirty run of a frame as a partial-page write; a failed one
  /// throws. A resident frame adopts each committed version, in run order,
  /// only when no other rank's write landed in between (its bytes would be
  /// missing here). No virtual charge beyond the copy: the writes are
  /// asynchronous in simulated time. The frame's dirty bits are left set;
  /// resident frames are reset via PCache::MarkClean (keeping the LRU lists
  /// in sync), detached frames are discarded wholesale.
  void ShipDirtyRuns(std::uint64_t page, PageFrame& frame) {
    const std::size_t es = sizeof(T);
    PagePool& pool = service_->runtime(ctx_->node()).pool();
    frame.dirty.ForEachRun([&](std::size_t lo, std::size_t hi) {
      std::uint64_t off = lo * es;
      std::uint64_t len = (hi - lo) * es;
      std::vector<std::uint8_t> bytes = pool.Acquire(len);
      std::memcpy(bytes.data(), frame.data.data() + off, len);
      writeback_bytes_->Inc(len);
      ctx_->Compute(static_cast<double>(len) / ctx_->costs().memcpy_Bps);
      const TaskOutcome outcome =
          service_->WriteRegion(*meta_, page, off, std::move(bytes),
                                ctx_->node(), ctx_->clock().now());
      if (!outcome.status.ok()) {
        throw std::runtime_error("commit failed: " + outcome.status.ToString());
      }
      if (PageFrame* resident = pcache_->Find(page)) {
        if (outcome.prev_version == resident->version) {
          resident->version = outcome.version;
        }
      }
    });
  }

  /// Commits dirty frames; frames stay resident (clean) when `retain`.
  void FlushDirtyFrames(bool retain) {
    for (std::uint64_t page : pcache_->DirtyPages()) {
      PageFrame* frame = pcache_->Find(page);
      MM_CHECK(frame != nullptr);
      ShipDirtyRuns(page, *frame);
      if (retain || pcache_->IsPinned(page)) {
        pcache_->MarkClean(page);
      } else {
        pcache_->Remove(page);  // buffer stays parked on the free list
        if (page == last_page_) {
          last_page_ = kNoPage;
          last_frame_ = nullptr;
        }
      }
    }
  }

  /// Recycles an evicted frame's buffer through the node's page pool so
  /// the next fetch on this node reuses it instead of allocating.
  void ReleasePageBytes(std::vector<std::uint8_t>&& data) {
    service_->runtime(ctx_->node()).pool().Release(std::move(data));
  }

  /// One Algorithm 1 invocation. The step's fetch-ahead pages are issued
  /// together once it returns, one ReadPagesAsync per ascending run of
  /// consecutive pages, so the service can stage unplaced ones in as runs;
  /// a page this rank staged ahead is issued no earlier than it landed.
  /// Then, for a reading transaction on a backed vector, the scored pages
  /// it offers are staged ahead the same way (Service::StageAhead).
  void PrefetchStep() {
    if (tx_ == nullptr || !service_->options().enable_prefetch) return;
    PrefetchVecState state;
    state.max_bytes = options_.pcache_bytes;
    state.cur_bytes = pcache_->committed();
    state.page_bytes = meta_->page_bytes;
    std::vector<std::uint64_t> fetch;
    std::vector<std::uint64_t> stage;
    std::vector<float> stage_scores;
    PrefetcherOps ops;
    ops.set_score = [&](std::uint64_t page, float score) {
      service_->SubmitScore(*meta_, page, score, ctx_->node(),
                            ctx_->clock().now());
    };
    ops.evict_page = [&](std::uint64_t page) {
      // Pages pinned by a live span survive the eviction pass.
      if (!pcache_->Contains(page) || pcache_->IsPinned(page)) return false;
      EvictPage(page);
      return true;
    };
    ops.fetch_ahead = [&](std::uint64_t page) {
      if (page * epp_ >= size()) return;
      fetch.push_back(page);
    };
    ops.cached_or_pending = [&](std::uint64_t page) {
      return pcache_->Contains(page) || pcache_->HasPending(page);
    };
    ops.est_read_seconds = [&](std::uint64_t page, std::uint64_t bytes) {
      return service_->EstimateReadSeconds(*meta_, page, bytes);
    };
    ops.reclaim = [&](std::uint64_t frames,
                      const std::set<std::uint64_t>& keep) {
      const std::vector<std::uint64_t> victims =
          pcache_->PickVictims(frames, keep);
      for (std::uint64_t page : victims) EvictPage(page);
      return static_cast<std::uint64_t>(victims.size());
    };
    if (tx_->reads() && meta_->stager != nullptr) {
      ops.stage_ahead = [&](std::uint64_t page, float score) {
        if (page * epp_ < size() && staged_.count(page) == 0) {
          stage.push_back(page);
          stage_scores.push_back(score);
        }
      };
    }
    Prefetcher::Step(state, *tx_, options_.min_score, ops);
    const sim::SimTime now = ctx_->clock().now();
    std::vector<sim::SimTime> issue(fetch.size(), now);
    if (!staged_.empty()) {
      for (std::size_t i = 0; i < fetch.size(); ++i) {
        issue[i] = std::max(now, StagedReadyTime(fetch[i]));
      }
    }
    // End of the run of consecutive pages of the ascending `pages` that
    // starts at `lo`, also cut before any page i where joins(i) is false.
    auto run_end = [](const std::vector<std::uint64_t>& pages,
                      std::size_t lo, auto joins) {
      std::size_t hi = lo + 1;
      while (hi < pages.size() && pages[hi] == pages[hi - 1] + 1 &&
             joins(hi)) {
        ++hi;
      }
      return hi;
    };
    for (std::size_t lo = 0, hi = 0; lo < fetch.size(); lo = hi) {
      hi = run_end(fetch, lo,
                   [&](std::size_t i) { return issue[i] == issue[lo]; });
      std::vector<PendingFetch> pendings = service_->ReadPagesAsync(
          *meta_, fetch[lo], hi - lo, ctx_->node(), issue[lo]);
      for (std::size_t i = 0; i < pendings.size(); ++i) {
        pcache_->AddPending(fetch[lo + i], std::move(pendings[i]));
      }
      prefetches_ += hi - lo;
      prefetch_issued_->Inc(hi - lo);
    }
    for (std::size_t lo = 0, hi = 0; lo < stage.size(); lo = hi) {
      hi = run_end(stage, lo, [](std::size_t) { return true; });
      // The run is cached at its nearest page's score.
      for (const auto& [page, out] :
           service_->StageAhead(*meta_, stage[lo], hi - lo, stage_scores[lo],
                                ctx_->node(), now)) {
        staged_.emplace(page, out.done);
        staged_count_->Inc();
      }
    }
  }

  Service* service_;
  comm::RankContext* ctx_;
  VectorOptions options_;
  VectorMeta* meta_ = nullptr;
  std::unique_ptr<PCache> pcache_;
  std::unique_ptr<Transaction> tx_;
  /// When this rank's stage-aheads landed, by page, kept until the rank's
  /// clock passes the time (StagedReadyTime).
  std::unordered_map<std::uint64_t, sim::SimTime> staged_;
  std::uint64_t last_page_ = kNoPage;
  PageFrame* last_frame_ = nullptr;
  // Strength-reduced address math for the scalar path: elems-per-page is
  // cached (meta_->elems_per_page() divides on every call), with shift/mask
  // for power-of-two page geometries, and the per-access clock charge is
  // folded into one constant.
  std::uint64_t epp_ = 0;
  int epp_shift_ = -1;
  std::uint64_t epp_mask_ = 0;
  double scalar_access_cost_s_ = 0.0;
  int pgas_rank_ = 0;
  int pgas_nprocs_ = 1;
  std::uint64_t faults_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t prefetches_ = 0;
  // Cached telemetry handles (see the constructor for the name catalog).
  telemetry::Counter* hit_count_ = nullptr;
  telemetry::Counter* miss_count_ = nullptr;
  telemetry::Counter* eviction_count_ = nullptr;
  telemetry::Counter* writeback_bytes_ = nullptr;
  telemetry::Counter* prefetch_issued_ = nullptr;
  telemetry::Counter* prefetch_useful_ = nullptr;
  telemetry::Counter* staged_count_ = nullptr;
  telemetry::NodeSink tel_ = telemetry::NodeSink::Dummy();
  sim::SimTime tx_begin_s_ = 0.0;
};

}  // namespace mm::core
