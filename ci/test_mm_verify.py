#!/usr/bin/env python3
"""Unit tests for ci/mm_verify.py: fixture C++ snippets per rule (one
positive and one negative fixture at least), the suppression machinery, and
the repo-tree-is-clean gate.

Usage: python3 ci/test_mm_verify.py
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import mm_verify  # noqa: E402


def verify(files: dict[str, str], dot_path=None):
    model = mm_verify.build_model(sorted(files.items()))
    return model, mm_verify.run_rules(model, dot_path=dot_path)


def findings_for(files: dict[str, str], rule: str, **kw):
    _, fs = verify(files, **kw)
    return [f for f in fs if f.rule == rule]


def lint_snippet(snippet: str, rel: str = "src/core/fake.cc"):
    """Every finding on a one-file tree holding `snippet` at `rel`."""
    return verify({rel: snippet})[1]


def rules_of(findings):
    return [f.rule for f in findings]


def catalog_findings(root: str):
    """MML010 findings of a whole-tree run over a fake repo at root."""
    return [f for f in mm_verify.analyze(root)[1] if f.rule == "MML010"]


# ---------------------------------------------------------------------------
# MML101: lock ordering
# ---------------------------------------------------------------------------

CYCLE_FIXTURE = {
    "include/mm/x/ab.h": """
namespace mm::x {
class B;
class A {
 public:
  void Foo(B& b);
  void TakeA() { MutexLock lock(mu_); }
  Mutex mu_;
};
class B {
 public:
  void Bar(A& a);
  void TakeB() { MutexLock lock(mu_); }
  Mutex mu_;
};
}  // namespace mm::x
""",
    "src/x/ab.cc": """
namespace mm::x {
void A::Foo(B& b) {
  MutexLock lock(mu_);
  b.TakeB();
}
void B::Bar(A& a) {
  MutexLock lock(mu_);
  a.TakeA();
}
}  // namespace mm::x
""",
}


class TestMML101LockOrder(unittest.TestCase):
    def test_cycle_detected(self):
        fs = findings_for(CYCLE_FIXTURE, "MML101")
        cycles = [f for f in fs if "cycle" in f.message]
        self.assertEqual(len(cycles), 1, fs)
        self.assertIn("mm::x::A::mu_", cycles[0].message)
        self.assertIn("mm::x::B::mu_", cycles[0].message)
        # Both witness paths are present.
        self.assertIn("src/x/ab.cc", cycles[0].message)

    def test_cycle_edges_also_undeclared(self):
        fs = findings_for(CYCLE_FIXTURE, "MML101")
        undeclared = [f for f in fs if "not declared" in f.message]
        self.assertEqual(len(undeclared), 2, fs)

    def test_dag_with_declarations_is_clean(self):
        files = {
            "include/mm/x/ab.h": """
namespace mm::x {
class B {
 public:
  void TakeB() { MutexLock lock(mu_); }
  Mutex mu_;
};
class A {
 public:
  void Foo(B& b) {
    MutexLock lock(mu_);
    b.TakeB();
  }
  Mutex mu_ MM_ACQUIRED_BEFORE(B::mu_);
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML101"), [])

    def test_acquired_after_covers_the_pair(self):
        files = {
            "include/mm/x/ab.h": """
namespace mm::x {
class B {
 public:
  void TakeB() { MutexLock lock(mu_); }
  Mutex mu_ MM_ACQUIRED_AFTER(A::mu_);
};
class A {
 public:
  void Foo(B& b) {
    MutexLock lock(mu_);
    b.TakeB();
  }
  Mutex mu_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML101"), [])

    def test_undeclared_nested_pair_flagged(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class Inner {
 public:
  Mutex mu_;
};
class Outer {
 public:
  void Go(Inner& in) {
    MutexLock lock(mu_);
    MutexLock inner(in.mu_);
  }
  Mutex mu_;
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML101")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("MM_ACQUIRED_BEFORE", fs[0].message)

    def test_edge_through_free_helper_and_accessor_chain(self):
        # Outer::Go holds mu_ and calls a namespace-level helper, which
        # reaches the queue through `outer.queue().Push()`: the pair must be
        # observed (and flagged, being undeclared).
        files = {
            "src/x/a.cc": """
namespace mm::x {
class Queue {
 public:
  void Push(int v) { MutexLock lock(mu_); }
  Mutex mu_;
};
class Outer {
 public:
  Queue& queue() { return q_; }
  void Go();
  Mutex mu_;
  Queue q_;
};
namespace {
void Enqueue(Outer& outer) { outer.queue().Push(1); }
}  // namespace
void Outer::Go() {
  MutexLock lock(mu_);
  Enqueue(*this);
}
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML101")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("Enqueue -> Push", fs[0].message)

    def test_leaf_lock_waives_declaration(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class Inner {
 public:
  // mm-verify: leaf-lock(fixture utility lock)
  Mutex mu_;
};
class Outer {
 public:
  void Go(Inner& in) {
    MutexLock lock(mu_);
    MutexLock inner(in.mu_);
  }
  Mutex mu_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML101"), [])

    def test_self_deadlock_via_callee(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Inner() { MutexLock lock(mu_); }
  void Outer() {
    MutexLock lock(mu_);
    Inner();
  }
  Mutex mu_;
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML101")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("re-acquired", fs[0].message)

    def test_early_unlock_trims_scope(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Inner() { MutexLock lock(mu_); }
  void Outer() {
    MutexLock lock(mu_);
    lock.Unlock();
    Inner();
  }
  Mutex mu_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML101"), [])

    def test_two_level_callee_chain(self):
        files = {
            "src/x/chain.cc": """
namespace mm::x {
class Queue {
 public:
  void Push() { MutexLock lock(mu_); }
  Mutex mu_;
};
class Runtime {
 public:
  void Submit() { q_.Push(); }
  Queue q_;
};
class Svc {
 public:
  void Fault() {
    MutexLock lock(mu_);
    rt_.Submit();
  }
  Mutex mu_;
  Runtime rt_;
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML101")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("via Submit", fs[0].message)
        self.assertIn("Queue::mu_", fs[0].message)

    def test_declaration_naming_unknown_mutex(self):
        files = {
            "include/mm/x/a.h": """
namespace mm::x {
class A {
 public:
  Mutex mu_ MM_ACQUIRED_BEFORE(Nope::mu_);
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML101")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("unknown mutex", fs[0].message)

    def test_declared_only_cycle_detected(self):
        files = {
            "include/mm/x/a.h": """
namespace mm::x {
class B {
 public:
  Mutex mu_ MM_ACQUIRED_BEFORE(A::mu_);
};
class A {
 public:
  Mutex mu_ MM_ACQUIRED_BEFORE(B::mu_);
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML101")
        cycles = [f for f in fs if "cycle" in f.message]
        self.assertEqual(len(cycles), 1, fs)
        self.assertIn("declared at", cycles[0].message)

    def test_every_overload_is_analyzed(self):
        # Only the first Put nests the locks; a model keyed by name alone
        # would keep the second body and miss the edge.
        files = {
            "src/x/a.cc": """
namespace mm::x {
class B {
 public:
  Mutex mu_;
};
class A {
 public:
  void Put(int k, B& b) {
    MutexLock lock(mu_);
    MutexLock inner(b.mu_);
  }
  void Put(int k) { MutexLock lock(mu_); }
  Mutex mu_;
};
}  // namespace mm::x
""",
        }
        model, fs = verify(files)
        self.assertEqual(len(model.functions["mm::x::A::Put"]), 2)
        fs = [f for f in fs if f.rule == "MML101"]
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("mm::x::A::mu_ -> mm::x::B::mu_", fs[0].message)

    def test_callee_summary_unions_overloads(self):
        # The model cannot tell overloads apart by their arguments, so a
        # call to Put takes the union of every Put body's locks.
        files = {
            "src/x/a.cc": """
namespace mm::x {
class B {
 public:
  void Put(int k) { MutexLock lock(mu_); }
  void Put(int k, int v) {}
  Mutex mu_;
};
class A {
 public:
  void Go(B& b) {
    MutexLock lock(mu_);
    b.Put(1, 2);
  }
  Mutex mu_;
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML101")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("via Put", fs[0].message)


class TestLockHierarchyDot(unittest.TestCase):
    def test_dot_written_with_observed_and_declared_edges(self):
        files = dict(CYCLE_FIXTURE)
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "lock_hierarchy.dot")
            verify(files, dot_path=path)
            with open(path) as f:
                dot = f.read()
        self.assertIn("digraph lock_hierarchy", dot)
        self.assertIn('"mm::x::A::mu_" -> "mm::x::B::mu_"', dot)
        self.assertIn('"mm::x::B::mu_" -> "mm::x::A::mu_"', dot)
        self.assertIn("src/x/ab.cc", dot)


# ---------------------------------------------------------------------------
# MML102: guarded-field escapes
# ---------------------------------------------------------------------------

class TestMML102GuardedEscape(unittest.TestCase):
    def test_return_address_of_guarded_field(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  int* Leak() {
    MutexLock lock(mu_);
    return &count_;
  }
  Mutex mu_;
  int count_ MM_GUARDED_BY(mu_);
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML102")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("escapes via return", fs[0].message)

    def test_reference_return_of_guarded_field(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  int& Leak() {
    MutexLock lock(mu_);
    return count_;
  }
  Mutex mu_;
  int count_ MM_GUARDED_BY(mu_);
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML102")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("returned by reference", fs[0].message)

    def test_value_return_is_fine(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  int Copy() {
    MutexLock lock(mu_);
    return count_;
  }
  Mutex mu_;
  int count_ MM_GUARDED_BY(mu_);
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML102"), [])

    def test_store_into_longer_lived_object(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
struct Sink { int* p; };
class A {
 public:
  void Stash(Sink* sink) {
    MutexLock lock(mu_);
    sink->p = &count_;
  }
  Mutex mu_;
  int count_ MM_GUARDED_BY(mu_);
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML102")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("outlives the lock scope", fs[0].message)

    def test_deferred_lambda_capture_by_reference(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Defer(Runtime& rt) {
    MutexLock lock(mu_);
    rt.Submit([&] { count_ += 1; });
  }
  Mutex mu_;
  int count_ MM_GUARDED_BY(mu_);
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML102")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("deferred sink Submit", fs[0].message)

    def test_immediate_lambda_not_flagged(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Inline() {
    MutexLock lock(mu_);
    auto bump = [&] { count_ += 1; };
    bump();
  }
  Mutex mu_;
  int count_ MM_GUARDED_BY(mu_);
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML102"), [])

    def test_suppression(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  int* Leak() {
    // mm-verify: allow(MML102 fixture-approved escape)
    return &count_;
  }
  Mutex mu_;
  int count_ MM_GUARDED_BY(mu_);
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML102"), [])


# ---------------------------------------------------------------------------
# MML103: seqlock discipline
# ---------------------------------------------------------------------------

class TestMML103Seqlock(unittest.TestCase):
    def test_store_bytes_outside_guard(self):
        files = {
            "src/x/w.cc": """
namespace mm::x {
class W {
 public:
  void Write(PageFrame* frame) {
    OptimisticGuard::StoreBytes(*frame, 0, src_, 8);
  }
  char* src_;
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML103")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("StoreBytes", fs[0].message)

    def test_store_bytes_inside_guard_ok(self):
        files = {
            "src/x/w.cc": """
namespace mm::x {
class W {
 public:
  void Write(PageFrame* frame) {
    FrameWriteGuard wg(frame);
    OptimisticGuard::StoreBytes(*frame, 0, src_, 8);
  }
  char* src_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML103"), [])

    def test_raw_memcpy_into_frame_outside_guard(self):
        files = {
            "src/x/w.cc": """
namespace mm::x {
class W {
 public:
  void Write(PageFrame* frame, const char* src) {
    std::memcpy(frame->data.data(), src, 8);
  }
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML103")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("memcpy", fs[0].message)

    def test_bytes_store_outside_guard(self):
        files = {
            "src/x/w.cc": """
namespace mm::x {
class W {
 public:
  void Publish(PageFrame* frame, unsigned char* p) {
    frame->bytes.store(p);
  }
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML103")
        self.assertEqual(len(fs), 1, fs)

    def test_seqlock_implementation_exempt(self):
        files = {
            "src/core/pcache.cc": """
namespace mm::core {
class PCache {
 public:
  void Write(PageFrame* frame) {
    OptimisticGuard::StoreBytes(*frame, 0, src_, 8);
  }
  char* src_;
};
}  // namespace mm::core
""",
        }
        self.assertEqual(findings_for(files, "MML103"), [])

    def test_deref_on_validate_failure_path(self):
        files = {
            "src/x/r.cc": """
namespace mm::x {
class R {
 public:
  int Read(OptimisticGuard& g) {
    int value = 0;
    g.ReadBytes(0, &value, 4);
    if (!g.Validate()) {
      return value;
    }
    return value;
  }
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML103")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("Validate()-failed", fs[0].message)

    def test_retry_without_use_is_clean(self):
        files = {
            "src/x/r.cc": """
namespace mm::x {
class R {
 public:
  int Read(OptimisticGuard& g) {
    int value = 0;
    g.ReadBytes(0, &value, 4);
    if (!g.Validate()) {
      retries_ += 1;
      return 0;
    }
    return value;
  }
  int retries_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML103"), [])


# ---------------------------------------------------------------------------
# MML104: determinism
# ---------------------------------------------------------------------------

class TestMML104Determinism(unittest.TestCase):
    def snippet(self, rel, line):
        return {rel: f"namespace mm {{\nvoid F() {{ {line} }}\n}}\n"}

    def test_wall_clock_in_src(self):
        fs = findings_for(self.snippet(
            "src/core/f.cc",
            "auto t = std::chrono::steady_clock::now();"), "MML104")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("wall clock", fs[0].message)

    def test_system_clock_in_header(self):
        fs = findings_for(self.snippet(
            "include/mm/core/f.h",
            "auto t = std::chrono::system_clock::now();"), "MML104")
        self.assertEqual(len(fs), 1, fs)

    def test_sim_dir_exempt(self):
        fs = findings_for(self.snippet(
            "src/sim/clock.cc",
            "auto t = std::chrono::steady_clock::now();"), "MML104")
        self.assertEqual(fs, [])

    def test_bench_allowlist_exempt(self):
        fs = findings_for(self.snippet(
            "bench/ledger.cc",
            "auto t = std::chrono::steady_clock::now();"), "MML104")
        self.assertEqual(fs, [])

    def test_non_allowlisted_bench_flagged(self):
        fs = findings_for(self.snippet(
            "bench/other.cc",
            "auto t = std::chrono::high_resolution_clock::now();"), "MML104")
        self.assertEqual(len(fs), 1, fs)

    def test_rand_flagged(self):
        fs = findings_for(self.snippet(
            "src/core/f.cc", "int r = rand();"), "MML104")
        self.assertEqual(len(fs), 1, fs)

    def test_std_rand_flagged(self):
        fs = findings_for(self.snippet(
            "src/core/f.cc", "int r = std::rand();"), "MML104")
        self.assertEqual(len(fs), 1, fs)

    def test_random_device_flagged(self):
        fs = findings_for(self.snippet(
            "src/core/f.cc", "std::random_device rd;"), "MML104")
        self.assertEqual(len(fs), 1, fs)

    def test_time_null_flagged(self):
        fs = findings_for(self.snippet(
            "src/core/f.cc", "auto t = time(nullptr);"), "MML104")
        self.assertEqual(len(fs), 1, fs)

    def test_seeded_engine_ok(self):
        fs = findings_for(self.snippet(
            "src/core/f.cc", "std::mt19937_64 rng(seed);"), "MML104")
        self.assertEqual(fs, [])

    def test_tests_dir_out_of_scope(self):
        fs = findings_for(self.snippet(
            "tests/f_test.cc", "int r = rand();"), "MML104")
        self.assertEqual(fs, [])

    def test_suppression(self):
        files = {"src/core/f.cc": (
            "namespace mm {\nvoid F() {\n"
            "  // mm-verify: allow(MML104 fixture-approved wall clock)\n"
            "  auto t = std::chrono::steady_clock::now();\n}\n}\n")}
        self.assertEqual(findings_for(files, "MML104"), [])


# ---------------------------------------------------------------------------
# MML002/MML003: PagePool buffer dataflow, Pin/Unpin balance
# ---------------------------------------------------------------------------

class TestMML002PoolDataflow(unittest.TestCase):
    def test_leaked_buffer_flagged(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Leak() {
    auto buf = pool_.Acquire(4096);
    buf[0] = 1;
  }
  PagePool pool_;
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML002")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("buf", fs[0].message)

    def test_pool_return_guard_ok(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Guarded() {
    auto buf = pool_.Acquire(4096);
    PoolReturn ret(pool_, buf);
    buf[0] = 1;
  }
  PagePool pool_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML002"), [])

    def test_move_handoff_ok(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Move() {
    auto buf = pool_.AcquireZeroed(4096);
    Consume(std::move(buf));
  }
  PagePool pool_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML002"), [])

    def test_member_store_handoff_ok(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Stash(Outcome& out) {
    out.data = pool_.AcquireZeroed(4096);
  }
  PagePool pool_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML002"), [])

    def test_return_handoff_ok(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  Buf Take() {
    auto buf = pool_.Acquire(4096);
    return buf;
  }
  PagePool pool_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML002"), [])


    def test_explicit_release_ok(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Scratch() {
    auto buf = pool_.Acquire(64);
    buf[0] = 1;
    pool_.Release(buf);
  }
  PagePool pool_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML002"), [])

    def test_non_pool_acquire_ignored(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Lock() {
    auto lease = dlock_.Acquire(ctx_);
    lease.Touch();
  }
  DistributedLock dlock_;
  int ctx_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML002"), [])

class TestMML003PinBalance(unittest.TestCase):
    def test_unbalanced_class_flagged(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Grab() { cache_->Pin(page_); }
  PCache* cache_;
  int page_;
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML003")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("1 Pin vs 0 Unpin", fs[0].message)

    def test_balanced_across_methods_ok(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Grab() { cache_->Pin(page_); }
  void Drop() { cache_->Unpin(page_); }
  PCache* cache_;
  int page_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML003"), [])

    def test_balanced_across_files_ok(self):
        # The tally is per class, so a Pin in the header and the matching
        # Unpin in the .cc must balance (a per-file count would flag both).
        files = {
            "include/mm/x/a.h": """
namespace mm::x {
class A {
 public:
  void Grab() { cache_->Pin(page_); }
  void Drop();
  PCache* cache_;
  int page_;
};
}  // namespace mm::x
""",
            "src/x/a.cc": """
namespace mm::x {
void A::Drop() { cache_->Unpin(page_); }
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML003"), [])


    def test_unbalanced_within_one_function_flagged(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Grab() {
    cache_->Pin(p_);
    cache_->Pin(q_);
    cache_->Unpin(p_);
  }
  PCache* cache_;
  int p_;
  int q_;
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML003")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("2 Pin vs 1 Unpin", fs[0].message)

    def test_pcache_definitions_exempt(self):
        # The PCache class defines Pin/Unpin and calls them internally; only
        # its callers' balance is checked.
        files = {
            "src/core/pcache.cc": """
namespace mm::core {
class PCache {
 public:
  void Pin(int page) { ++pins_; }
  void Unpin(int page) { --pins_; }
  void PinRange(int lo, int hi) {
    for (int p = lo; p < hi; ++p) Pin(p);
  }
  int pins_;
};
}  // namespace mm::core
""",
        }
        self.assertEqual(findings_for(files, "MML003"), [])

# ---------------------------------------------------------------------------
# Per-line and per-file rules: MML001, MML004–MML011
# ---------------------------------------------------------------------------

class Mml001RawSyncTest(unittest.TestCase):
    def test_flags_raw_mutex_in_core(self):
        findings = lint_snippet("#include <mutex>\nstd::mutex mu_;\n")
        self.assertEqual(rules_of(findings), ["MML001", "MML001"])

    def test_flags_lock_guard_and_condvar(self):
        snippet = ("std::lock_guard<std::mutex> lock(mu_);\n"
                   "std::condition_variable cv_;\n")
        self.assertEqual(rules_of(lint_snippet(snippet)),
                         ["MML001", "MML001"])  # one finding per line

    def test_allows_wrappers(self):
        snippet = ('#include "mm/util/mutex.h"\n'
                   "mm::Mutex mu_;\nmm::MutexLock lock(mu_);\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_util_is_exempt(self):
        findings = lint_snippet("std::mutex mu_;\n",
                                rel="include/mm/util/mutex.h")
        self.assertEqual(findings, [])

    def test_tests_are_exempt(self):
        # Scope is include/ + src/: tests may build raw-primitive fixtures.
        findings = lint_snippet("std::mutex mu_;\n", rel="tests/test_x.cc")
        self.assertEqual(findings, [])

    def test_commented_mention_is_ignored(self):
        findings = lint_snippet("// replaces std::mutex with mm::Mutex\n")
        self.assertEqual(findings, [])


class Mml004HotPathTest(unittest.TestCase):
    def test_flags_check_in_span_subscript(self):
        snippet = ("T& operator[](std::uint64_t i) {\n"
                   "  MM_CHECK(i < n_);\n"
                   "  return *p_;\n"
                   "}\n")
        self.assertEqual(
            rules_of(lint_snippet(snippet, rel="include/mm/core/vector.h")),
            ["MML004"])

    def test_check_free_hot_function_is_clean(self):
        snippet = ("T& operator[](std::uint64_t i) {\n"
                   "  return *p_;\n"
                   "}\n")
        self.assertEqual(
            lint_snippet(snippet, rel="include/mm/core/vector.h"), [])

    def test_flags_check_in_pcache_find(self):
        snippet = ("PageFrame* PCache::Find(std::uint64_t page) {\n"
                   "  MM_CHECK_MSG(page < max_, \"bad page\");\n"
                   "  return nullptr;\n"
                   "}\n")
        self.assertEqual(
            rules_of(lint_snippet(snippet, rel="src/core/pcache.cc")),
            ["MML004"])

    def test_cold_function_in_hot_file_is_clean(self):
        snippet = ("void PCache::Validate() {\n"
                   "  MM_CHECK(frames_.size() <= capacity_);\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet, rel="src/core/pcache.cc"), [])

    def test_declaration_is_not_a_body(self):
        snippet = "PageFrame* Find(std::uint64_t page);\n"
        self.assertEqual(lint_snippet(snippet, rel="src/core/pcache.cc"), [])

    def test_call_to_hot_function_is_not_its_body(self):
        snippet = ("void PCache::Evict(std::uint64_t p) "
                   "{ if (Find(p) != nullptr) { MM_CHECK(p < 10); } }\n")
        self.assertEqual(lint_snippet(snippet, rel="src/core/pcache.cc"), [])

    def test_span_subscript_overloads_are_modeled(self):
        snippet = ("namespace mm::core {\n"
                   "template <typename T>\n"
                   "class Vector {\n"
                   " public:\n"
                   "  class Span {\n"
                   "   public:\n"
                   "    T& operator[](std::uint64_t i) { return p_[i]; }\n"
                   "    const T& operator[](std::uint64_t i) const {\n"
                   "      MM_CHECK(i < n_);\n"
                   "      return p_[i];\n"
                   "    }\n"
                   "    T* p_;\n"
                   "  };\n"
                   "  std::size_t operator()(int k) const { return k; }\n"
                   "};\n"
                   "}  // namespace mm::core\n")
        model, fs = verify({"include/mm/core/vector.h": snippet})
        spans = model.functions["mm::core::Vector::Span::operator[]"]
        self.assertEqual([model.files[f.rel].line_of(f.open) for f in spans],
                         [7, 8])
        self.assertIn("mm::core::Vector::operator()", model.functions)
        self.assertEqual([(f.rule, f.line) for f in fs], [("MML004", 9)])


class Mml005VoidDiscardTest(unittest.TestCase):
    def test_flags_bare_discard(self):
        snippet = "void F() {\n  (void)DoThing();\n}\n"
        self.assertEqual(rules_of(lint_snippet(snippet)), ["MML005"])

    def test_same_line_comment_is_clean(self):
        snippet = "void F() {\n  (void)DoThing();  // teardown path\n}\n"
        self.assertEqual(lint_snippet(snippet), [])

    def test_preceding_comment_is_clean(self):
        snippet = ("void F() {\n"
                   "  // Best-effort cleanup; failure only wastes bytes.\n"
                   "  (void)DoThing();\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_void_cast_in_cast_expression_unflagged(self):
        # `(void*)` is a pointer cast, not a discard.
        snippet = "void F() {\n  auto* p = (void*)buf;\n}\n"
        self.assertEqual(lint_snippet(snippet), [])


class Mml006MetricNamesTest(unittest.TestCase):
    def test_flags_wrong_scheme(self):
        snippet = 'void F() {\n  reg.GetCounter("pcache_hits");\n}\n'
        self.assertEqual(rules_of(lint_snippet(snippet)), ["MML006"])

    def test_flags_missing_unit_suffix(self):
        snippet = 'void F() {\n  reg.GetCounter("mm.pcache.hits");\n}\n'
        self.assertEqual(rules_of(lint_snippet(snippet)), ["MML006"])

    def test_flags_uppercase(self):
        snippet = 'void F() {\n  reg.GetGauge("mm.Tier.used_bytes");\n}\n'
        self.assertEqual(rules_of(lint_snippet(snippet)), ["MML006"])

    def test_well_formed_names_are_clean(self):
        snippet = ('void F() {\n'
                   '  reg.GetCounter("mm.pcache.hit_count");\n'
                   '  reg.GetGauge("mm.tier.dram_used_bytes");\n'
                   '  reg.GetHistogram("mm.task.get_page_ns", bounds);\n'
                   '}\n')
        self.assertEqual(lint_snippet(snippet), [])

    def test_multiline_call_is_checked(self):
        snippet = ('void F() {\n'
                   '  reg.GetHistogram(\n'
                   '      "mm.service.fault.latency",\n'
                   '      bounds);\n'
                   '}\n')
        findings = lint_snippet(snippet)
        self.assertEqual(rules_of(findings), ["MML006"])
        self.assertEqual(findings[0].line, 3)

    def test_tests_and_bench_are_exempt(self):
        snippet = 'void F() {\n  reg.GetCounter("whatever");\n}\n'
        self.assertEqual(lint_snippet(snippet, rel="tests/test_x.cc"), [])
        self.assertEqual(lint_snippet(snippet, rel="bench/ledger.cc"), [])

    def test_non_literal_first_arg_is_ignored(self):
        # Dynamic names can't be validated statically; the catalog review
        # catches them.
        snippet = 'void F() {\n  reg.GetCounter(name);\n}\n'
        self.assertEqual(lint_snippet(snippet), [])


class Mml007AtomicPublishTest(unittest.TestCase):
    def test_flags_direct_open_of_final_path(self):
        snippet = ('void F(const std::string& path) {\n'
                   '  std::ofstream out(path, std::ios::binary);\n'
                   '  out << "x";\n'
                   '}\n')
        findings = lint_snippet(snippet, rel="src/ckpt/manifest.cc")
        self.assertEqual(rules_of(findings), ["MML007"])
        self.assertEqual(findings[0].line, 2)

    def test_tmp_named_path_is_clean(self):
        snippet = ('void F(const std::string& path) {\n'
                   '  std::string tmp = path + ".tmp";\n'
                   '  std::ofstream out(tmp, std::ios::binary);\n'
                   '}\n')
        self.assertEqual(lint_snippet(snippet, rel="src/ckpt/manifest.cc"), [])

    def test_append_mode_is_clean(self):
        # The redo journal IS the write-ahead log: append-mode opens of the
        # journal file are the mechanism, not a violation.
        snippet = ('void F(const std::string& path) {\n'
                   '  std::ofstream out(path,'
                   ' std::ios::binary | std::ios::app);\n'
                   '}\n')
        self.assertEqual(lint_snippet(snippet, rel="src/ckpt/journal.cc"), [])

    def test_renaming_function_is_clean(self):
        snippet = ('void F(const std::string& path, const std::string& f) {\n'
                   '  std::ofstream out(f, std::ios::binary);\n'
                   '  out.close();\n'
                   '  std::filesystem::rename(f, path);\n'
                   '}\n')
        self.assertEqual(lint_snippet(snippet, rel="src/ckpt/manifest.cc"), [])

    def test_rename_in_another_function_does_not_count(self):
        snippet = ('void Publish(const std::string& f, const std::string& p) {\n'
                   '  std::filesystem::rename(f, p);\n'
                   '}\n'
                   'void F(const std::string& path) {\n'
                   '  std::ofstream out(path, std::ios::binary);\n'
                   '}\n')
        findings = lint_snippet(snippet, rel="src/ckpt/manifest.cc")
        self.assertEqual([(f.rule, f.line) for f in findings],
                         [("MML007", 5)])

    def test_non_ckpt_files_are_exempt(self):
        snippet = ('void F(const std::string& path) {\n'
                   '  std::ofstream out(path, std::ios::binary);\n'
                   '}\n')
        self.assertEqual(lint_snippet(snippet, rel="src/storage/stager.cc"),
                         [])

    def test_suppression_applies(self):
        snippet = ('void F(const std::string& path) {\n'
                   '  // mm-verify: allow(MML007 bootstrap file, no readers)\n'
                   '  std::ofstream out(path, std::ios::binary);\n'
                   '}\n')
        self.assertEqual(lint_snippet(snippet, rel="src/ckpt/manifest.cc"), [])


class Mml008UnboundedRecvTest(unittest.TestCase):
    def test_flags_blocking_recv_in_apps(self):
        snippet = ("void F(Communicator& comm) {\n"
                   "  auto tmp = comm.Recv<double>(src, tag);\n"
                   "}\n")
        findings = lint_snippet(snippet, rel="src/apps/gray_scott.cc")
        self.assertEqual(rules_of(findings), ["MML008"])
        self.assertEqual(findings[0].line, 2)

    def test_flags_recv_value_and_recv_bytes(self):
        snippet = ("void F(Communicator* comm) {\n"
                   "  int v = comm->RecvValue<int>(0, 1);\n"
                   "  auto b = comm->RecvBytes(0, 2);\n"
                   "}\n")
        self.assertEqual(rules_of(lint_snippet(snippet)),
                         ["MML008", "MML008"])

    def test_deadline_variants_are_clean(self):
        snippet = ("void F(Communicator& comm) {\n"
                   "  auto a = comm.RecvOr<double>(src, tag);\n"
                   "  auto b = comm.RecvValueOr<int>(0, 1);\n"
                   "  auto c = comm.RecvBytesOr(0, 2);\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_comm_layer_is_exempt(self):
        # The wrappers' own definitions live in comm/.
        snippet = ("std::vector<std::uint8_t> RecvBytes(int src, int tag) {\n"
                   "  auto out = mailbox.RecvBytes(src, tag);\n"
                   "  return out;\n"
                   "}\n")
        self.assertEqual(
            lint_snippet(snippet, rel="include/mm/comm/communicator.h"), [])
        self.assertEqual(
            lint_snippet(snippet, rel="src/comm/communicator.cc"), [])

    def test_tests_are_exempt(self):
        snippet = ("void F(Communicator& comm) {\n"
                   "  int v = comm.RecvValue<int>(0, 1);\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet, rel="tests/test_comm.cc"), [])

    def test_unrelated_recv_named_method_is_ignored(self):
        # Only the exact Recv/RecvValue/RecvBytes names are unbounded.
        snippet = ("void F(Stats& s) {\n"
                   "  s.RecvCount();\n"
                   "  Recv(x);\n"  # free function, not a comm method
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_suppression_applies(self):
        snippet = ("void F(Communicator& comm) {\n"
                   "  // mm-verify: allow(MML008 bootstrap runs pre-detector)\n"
                   "  auto b = comm.RecvBytes(0, 2);\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])


class Mml009FrameVersionTest(unittest.TestCase):
    def test_flags_arrow_access_in_core(self):
        snippet = ("void F(PageFrame* frame) {\n"
                   "  std::uint64_t v = frame->version.load();\n"
                   "}\n")
        findings = lint_snippet(snippet, rel="src/core/vector_impl.cc")
        self.assertEqual(rules_of(findings), ["MML009"])
        self.assertEqual(findings[0].line, 2)

    def test_flags_dot_access_and_frame_substring_names(self):
        snippet = ("void F(PageFrame& victim_frame, PageFrame* frame_ptr) {\n"
                   "  auto a = victim_frame.version;\n"
                   "  frame_ptr->version = 7;\n"
                   "}\n")
        self.assertEqual(rules_of(lint_snippet(snippet)),
                         ["MML009", "MML009"])

    def test_flags_in_tests_and_benches_too(self):
        # The guard protocol binds every reader, fixtures included.
        snippet = ("TEST(X, Y) {\n"
                   "  EXPECT_EQ(frame->version.load(), 1u);\n"
                   "}\n")
        self.assertEqual(
            rules_of(lint_snippet(snippet, rel="tests/test_vector.cc")),
            ["MML009"])

    def test_guard_api_is_clean(self):
        snippet = ("void F(const PageFrame& frame) {\n"
                   "  OptimisticGuard g(frame);\n"
                   "  std::uint64_t v = OptimisticGuard::Version(frame);\n"
                   "  OptimisticGuard::SetVersion(frame, v + 1);\n"
                   "  std::uint64_t gv = g.version();\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_implementation_files_are_exempt(self):
        snippet = ("void F(PageFrame* frame) {\n"
                   "  frame->version.store(2, std::memory_order_release);\n"
                   "}\n")
        self.assertEqual(
            lint_snippet(snippet, rel="src/core/pcache.cc"), [])
        self.assertEqual(
            lint_snippet(snippet, rel="include/mm/core/pcache.h"), [])
        self.assertEqual(
            lint_snippet(snippet,
                         rel="include/mm/core/optimistic_guard.h"), [])

    def test_non_frame_version_fields_are_ignored(self):
        # BlobLocation and friends have version fields too; only
        # frame-named identifiers are the seqlock word.
        snippet = ("void F(const BlobLocation& loc, Record* rec) {\n"
                   "  auto a = loc.version;\n"
                   "  auto b = rec->version;\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_suppression_applies(self):
        snippet = ("void F(PageFrame* frame) {\n"
                   "  // mm-verify: allow(MML009 owner thread, no readers yet)\n"
                   "  frame->version = 1;\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])


class Mml011TreeNodeBytesTest(unittest.TestCase):
    def test_flags_union_arm_access_in_core(self):
        snippet = ("void F(NodeBlock& blk) {\n"
                   "  auto k = blk.leaf.keys[0];\n"
                   "  blk.inner.children[1] = 7;\n"
                   "}\n")
        findings = lint_snippet(snippet)
        self.assertEqual(rules_of(findings), ["MML011", "MML011"])
        self.assertEqual(findings[0].line, 2)

    def test_flags_node_named_identifier_fields(self):
        snippet = ("void F(LeafNode* node, InnerNode& root_node) {\n"
                   "  node->hdr.count = 0;\n"
                   "  auto s = root_node.seps[2];\n"
                   "}\n")
        self.assertEqual(rules_of(lint_snippet(snippet)),
                         ["MML011", "MML011"])

    def test_flags_in_benches_too(self):
        snippet = ("int main() {\n"
                   "  auto f = blk.leaf.fence;\n"
                   "}\n")
        self.assertEqual(rules_of(lint_snippet(snippet, rel="bench/x.cc")),
                        ["MML011"])

    def test_index_subsystem_and_layout_test_are_exempt(self):
        snippet = ("void F(NodeBlock& blk) {\n"
                   "  blk.leaf.keys[0] = 1;\n"
                   "}\n")
        for rel in ("include/mm/index/btree.h", "src/index/metrics.cc",
                    "tests/test_btree.cc"):
            self.assertEqual(lint_snippet(snippet, rel=rel), [], rel)

    def test_api_use_is_clean(self):
        snippet = ("void F(mm::index::BTree<int, int>& tree, NodeRef r) {\n"
                   "  tree.Put(1, 2);\n"
                   "  auto k = r.key(0);\n"
                   "  auto c = r.child(1);\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_suppression_applies(self):
        snippet = ("void F(NodeBlock& blk) {\n"
                   "  // mm-verify: allow(MML011 offline repair tool)\n"
                   "  blk.leaf.keys[0] = 1;\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])


CATALOG_STUB = ("## 11. Telemetry\n"
                "### Metric catalog\n"
                "| family | metrics |\n"
                "|---|---|\n"
                "| `mm.pcache.*` | `hit_count`, `miss_count` |\n"
                "| `mm.tier.*` | `{dram,nvme}_{read,write}_bytes` |\n"
                "## 12. Next\n")


def write_tree(root: str, design: str, sources: dict):
    """Lays out a fake repo: DESIGN.md plus {relpath: text} source files."""
    with open(os.path.join(root, "DESIGN.md"), "w") as f:
        f.write(design)
    for rel, text in sources.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(text)


class Mml010CatalogDriftTest(unittest.TestCase):
    def test_expand_token_passthrough_and_braces(self):
        self.assertEqual(mm_verify.expand_token("hit_count"), ["hit_count"])
        self.assertEqual(mm_verify.expand_token("{a,b}_ns"), ["a_ns", "b_ns"])
        self.assertEqual(
            mm_verify.expand_token("{a, b}_{x,y}"),
            ["a_x", "a_y", "b_x", "b_y"])  # whitespace in alternatives ok

    def test_parse_metric_catalog(self):
        names = mm_verify.parse_metric_catalog(CATALOG_STUB)
        self.assertIn("mm.pcache.hit_count", names)
        self.assertIn("mm.tier.nvme_write_bytes", names)
        self.assertEqual(len(names), 2 + 4)
        # Values are 1-based DESIGN.md lines of the family row.
        self.assertEqual(names["mm.pcache.miss_count"], 5)

    def test_parse_missing_section_returns_none(self):
        self.assertIsNone(mm_verify.parse_metric_catalog("## 11\nno table\n"))

    def test_clean_round_trip(self):
        with tempfile.TemporaryDirectory() as root:
            write_tree(root, CATALOG_STUB, {
                "src/core/a.cc":
                    'void F() {\n'
                    '  reg.GetCounter("mm.pcache.hit_count");\n'
                    '  reg.GetCounter("mm.pcache.miss_count");\n'
                    '  reg.GetCounter("mm.tier.dram_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.dram_write_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_write_bytes");\n'
                    '}\n'})
            self.assertEqual(catalog_findings(root), [])

    def test_flags_metric_missing_from_catalog(self):
        with tempfile.TemporaryDirectory() as root:
            write_tree(root, CATALOG_STUB, {
                "src/core/a.cc":
                    'void F() {\n'
                    '  reg.GetCounter("mm.pcache.hit_count");\n'
                    '  reg.GetCounter("mm.pcache.miss_count");\n'
                    '  reg.GetCounter("mm.tier.dram_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.dram_write_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_write_bytes");\n'
                    '  reg.GetCounter("mm.rogue.thing_count");\n'
                    '}\n'})
            findings = catalog_findings(root)
            self.assertEqual(rules_of(findings), ["MML010"])
            self.assertEqual(findings[0].path, "src/core/a.cc")
            self.assertEqual(findings[0].line, 8)
            self.assertIn("mm.rogue.thing_count", findings[0].message)

    def test_flags_stale_catalog_entry(self):
        with tempfile.TemporaryDirectory() as root:
            write_tree(root, CATALOG_STUB, {
                "src/core/a.cc":
                    'void F() {\n'
                    '  reg.GetCounter("mm.pcache.hit_count");\n'
                    '  reg.GetCounter("mm.tier.dram_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.dram_write_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_write_bytes");\n'
                    '}\n'})  # miss_count documented but never registered
            findings = catalog_findings(root)
            self.assertEqual(rules_of(findings), ["MML010"])
            self.assertEqual(findings[0].path, "DESIGN.md")
            self.assertEqual(findings[0].line, 5)
            self.assertIn("mm.pcache.miss_count", findings[0].message)

    def test_missing_catalog_section_is_a_finding(self):
        with tempfile.TemporaryDirectory() as root:
            write_tree(root, "## 11. Telemetry\nprose only\n", {})
            findings = catalog_findings(root)
            self.assertEqual(rules_of(findings), ["MML010"])
            self.assertEqual(findings[0].path, "DESIGN.md")

    def test_file_filter_reports_drift_in_listed_files(self):
        # Positional files only filter the report: the catalog check still
        # runs, and the stale DESIGN.md entry is filtered out.
        with tempfile.TemporaryDirectory() as root:
            write_tree(root, CATALOG_STUB, {
                "src/core/a.cc":
                    'void F() {\n'
                    '  reg.GetCounter("mm.pcache.hit_count");\n'
                    '  reg.GetCounter("mm.rogue.thing_count");\n'
                    '}\n'})
            rc = mm_verify.main(["--root", root, "--dot", "-",
                                 os.path.join(root, "src/core/a.cc")])
            self.assertEqual(rc, 1)

    def test_allow_comment_suppresses_registration(self):
        with tempfile.TemporaryDirectory() as root:
            write_tree(root, CATALOG_STUB, {
                "src/core/a.cc":
                    'void F() {\n'
                    '  reg.GetCounter("mm.pcache.hit_count");\n'
                    '  reg.GetCounter("mm.pcache.miss_count");\n'
                    '  reg.GetCounter("mm.tier.dram_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.dram_write_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_write_bytes");\n'
                    '  // mm-verify: allow(MML010 experimental, not in catalog)\n'
                    '  reg.GetCounter("mm.lab.probe_count");\n'
                    '}\n'})
            self.assertEqual(catalog_findings(root), [])


class SuppressionTest(unittest.TestCase):
    def test_allow_comment_suppresses_same_line(self):
        snippet = ("std::mutex mu_;  "
                   "// mm-verify: allow(MML001 fixture for wrapper tests)\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_allow_comment_suppresses_next_line(self):
        snippet = ("// mm-verify: allow(MML001 fixture for wrapper tests)\n"
                   "std::mutex mu_;\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_allow_without_reason_is_a_finding(self):
        snippet = "std::mutex mu_;  // mm-verify: allow(MML001)\n"
        rules = rules_of(lint_snippet(snippet))
        self.assertIn("MML001", rules)  # reasonless allow does not suppress

    def test_allow_only_covers_named_rule(self):
        snippet = ("// mm-verify: allow(MML005 audited)\n"
                   "std::mutex mu_;\n")
        self.assertEqual(rules_of(lint_snippet(snippet)), ["MML001"])


class StripperTest(unittest.TestCase):
    def test_preserves_offsets(self):
        text = 'a = "x{y}"; // std::mutex\nb;\n'
        stripped = mm_verify.strip_comments_and_strings(text)
        self.assertEqual(len(stripped), len(text))
        self.assertEqual(stripped.count("\n"), text.count("\n"))
        self.assertNotIn("mutex", stripped)
        self.assertNotIn("{", stripped)


# ---------------------------------------------------------------------------
# Suppression hygiene + repo gate
# ---------------------------------------------------------------------------

class TestSuppressions(unittest.TestCase):
    def test_reasonless_suppression_is_a_finding(self):
        files = {"src/x/a.cc": "// mm-verify: allow(MML104)\n"}
        _, fs = verify(files)
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("without a reason", fs[0].message)

    def test_retired_mm_lint_spelling_does_not_suppress(self):
        files = {"src/core/f.cc": (
            "namespace mm {\nvoid F() {\n"
            "  // mm-lint: allow(MML104 retired suppression spelling)\n"
            "  auto t = std::chrono::steady_clock::now();\n}\n}\n")}
        self.assertEqual(len(findings_for(files, "MML104")), 1)


class TestRepoTreeClean(unittest.TestCase):
    def test_repo_is_clean(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with tempfile.TemporaryDirectory() as td:
            rc = mm_verify.main(
                ["--root", root,
                 "--dot", os.path.join(td, "lock_hierarchy.dot")])
            self.assertEqual(rc, 0)

    def test_repo_catalog_matches_code(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.assertEqual([str(f) for f in catalog_findings(root)], [])

    def test_repo_observes_known_hierarchy(self):
        # The annotated contract must stay anchored to reality: these edges
        # are observed in today's tree and should remain in the model.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        model = mm_verify.build_model(mm_verify.read_tree(root))
        summaries = mm_verify.compute_summaries(model)
        edges = {(e.src, e.dst)
                 for e in mm_verify.observed_edges(model, summaries)}
        self.assertIn(("mm::storage::BufferManager::mu_",
                       "mm::storage::TierStore::mu_"), edges)
        self.assertIn(("mm::core::Service::vectors_mu_",
                       "mm::core::VectorMeta::backend_mu"), edges)
        self.assertIn(("mm::core::Service::inflight_mu_",
                       "mm::BlockingQueue::mu_"), edges)
        # The index subsystem's SMO lease sits above the distributed lock
        # and the service internals (DESIGN.md §15): its MM_ACQUIRED_BEFORE
        # declaration must resolve (no MML101 unresolved-ref findings) and
        # keep these edges in the declared contract.
        declared, unresolved = mm_verify.declared_edges(model)
        self.assertEqual(unresolved, [], unresolved)
        declared_pairs = {(e.src, e.dst) for e in declared}
        for dst in ("mm::comm::DistributedLock::mu_",
                    "mm::core::Service::vectors_mu_",
                    "mm::core::Service::inflight_mu_",
                    "mm::BlockingQueue::mu_"):
            self.assertIn(("mm::index::BTreeBase::smo_mu_", dst),
                          declared_pairs)


if __name__ == "__main__":
    unittest.main(verbosity=2)
