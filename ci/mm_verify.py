#!/usr/bin/env python3
"""mm_verify: the MegaMmap static analyzer.

One textual frontend builds a structural model of the tree — classes, mutex
fields, guarded fields, every function body, lock-acquisition scopes and a
call graph — and one file walk feeds both the per-line rules and the
whole-program rules (see DESIGN.md §10):

  MML001  Raw std synchronization primitive (std::mutex, std::lock_guard,
          std::condition_variable, <mutex>, ...) in include/ + src/ outside
          util/: runtime code uses the annotated mm::Mutex / MutexLock /
          CondVar wrappers so Clang's -Wthread-safety sees the locking.
  MML002  PagePool Acquire/AcquireZeroed whose result variable is neither
          PoolReturn-guarded, std::move'd, Release'd, returned, stored into
          an outgoing object, nor handed to a callee (per-variable
          dataflow). Un-returned buffers drop out of the recycling loop.
  MML003  PCache Pin/Unpin balance tallied per enclosing *class* across the
          model, so a Pin in a header and its Unpin in the .cc balance. A
          leaked pin makes the frame unevictable.
  MML004  MM_CHECK inside a DESIGN.md §7 hot-path function body (HOT_PATHS,
          looked up by qualified name in the model). The fast path is two
          integer ops by contract; checks belong on the scalar entry points.
  MML005  (void)-discarded call without a same-line or preceding-line
          comment saying why the result cannot matter.
  MML006  Metric name literal passed to GetCounter/GetGauge/GetHistogram in
          include/ + src/ that does not match `mm.<subsystem>.<name>` or
          lacks a unit suffix (METRIC_UNIT_SUFFIXES).
  MML007  std::ofstream/std::fstream open of a final path in ckpt code:
          artifacts are published by write-to-temp + rename (DESIGN.md §12).
          Exempt: append-mode opens (the redo journal), tmp/temp paths, and
          opens inside a function that rename()s the file into place.
  MML008  Unbounded Recv/RecvValue/RecvBytes in include/ + src/ outside
          comm/: peer death must surface as a kPeerDead Status through the
          deadline *Or variants (DESIGN.md §13).
  MML009  Raw `frame->version` / `frame.version` access outside
          core/pcache and core/optimistic_guard: the version word is half
          of the §14 seqlock; use OptimisticGuard::Version / SetVersion.
  MML010  Metric catalog drift: every `mm.*` metric literal in include/ +
          src/ must appear in the DESIGN.md §11 "Metric catalog" table and
          every catalog entry must be registered somewhere. Rows are
          `| `mm.family.*` | `name`, `{a,b}_suffix`, ... |`, brace groups
          expanded combinatorially.
  MML011  Raw B-tree node byte access (`.leaf.keys`, `->inner.seps`,
          `node.hdr`, ...) outside include/mm/index/ + src/index/
          (tests/test_btree.cc is the white-box layout test): node bytes are
          only coherent under the §15 frame-seqlock protocol.
  MML101  Lock order / deadlock. Every nested `mm::MutexLock` acquisition
          pair (resolved to `Class::field`, following callees to
          CALL_DEPTH) is an edge in a global lock graph. Cycles are reported
          with both witness paths, and every observed edge must be declared
          with `MM_ACQUIRED_BEFORE` / `MM_ACQUIRED_AFTER` on the mutex
          field. Utility leaf locks may instead carry a
          `mm-verify: leaf-lock(<reason>)` comment: edges INTO a leaf need no
          declaration but are still cycle-checked. The observed+declared
          graph is written as Graphviz DOT (build/lock_hierarchy.dot).
  MML102  Guarded-field escape: a pointer/reference to an `MM_GUARDED_BY`
          field returned, stored into a longer-lived object, or captured by
          reference in a lambda handed to a deferred sink (Submit/Push/...).
  MML103  Seqlock discipline: frame-byte writes (`StoreBytes`,
          `frame->bytes.store`, `memcpy(frame->data...)`) sit inside a
          `FrameWriteGuard` section, and data copied through an
          `OptimisticGuard` is not used on the `Validate()`-failed path.
          core/pcache and core/optimistic_guard are exempt.
  MML104  Determinism: wall clocks, `time()`, `rand()`/`srand()` and
          `std::random_device` are banned in src/, include/mm/ and bench/
          outside sim/ (DESIGN.md §4); real-time benches are allowlisted.

The model covers every scanned directory except tests/, which only the
per-line rules read. Lock-hierarchy annotations are read from the source
text: MM_ACQUIRED_BEFORE expands to nothing at compile time, so the text is
the contract of record.

Suppression: `mm-verify: allow(MMLnnn <reason>)` in a comment on the
offending line or the line above. Suppressions without a reason are
findings.

Usage: python3 ci/mm_verify.py [--root DIR] [--dot PATH|-] [--verbose]
           [files...]
The positional files only filter which findings are reported; the whole
tree is always analyzed. Exit status is the number of findings (0 == clean).
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import os
import re
import sys
from dataclasses import dataclass, field as dc_field

SOURCE_DIRS = ("bench", "examples", "include", "src", "tests")
SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp")
LEXICAL_ONLY_DIRS = ("tests/",)   # scanned by the per-line rules, not modeled
CALL_DEPTH = 3                    # callee lock-summary propagation depth

ALLOW_RE = re.compile(r"mm-verify:\s*allow\(\s*(MML\d{3})\b([^)]*)\)")
LEAF_RE = re.compile(r"mm-verify:\s*leaf-lock\(([^)]*)\)")

# MML001 ---------------------------------------------------------------------
RAW_SYNC_RE = re.compile(
    r"std::(?:recursive_|timed_|shared_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>"
)

# MML004: (file-name substring, qualified hot-path function) -----------------
HOT_PATHS = (
    ("vector.h", "mm::core::Vector::Span::operator[]"),
    ("pcache", "mm::core::PCache::Find"),
    ("pcache", "mm::core::PCache::Touch"),
    ("pcache", "mm::core::PCache::MarkElemDirty"),
    ("pcache", "mm::core::PCache::PickVictim"),
    ("memory_task.h", "mm::core::PagePool::Acquire"),
    ("memory_task.h", "mm::core::PagePool::AcquireZeroed"),
    ("memory_task.h", "mm::core::PagePool::Release"),
)
MM_CHECK_RE = re.compile(r"\bMM_CHECK(?:_MSG)?\s*\(")

# MML005 ---------------------------------------------------------------------
VOID_DISCARD_RE = re.compile(r"\(\s*void\s*\)\s*[\w:~]")

# MML006 / MML010 ------------------------------------------------------------
METRIC_GET_RE = re.compile(
    r"Get(?:Counter|Gauge|Histogram)\s*\(\s*\"([^\"]*)\"")
METRIC_NAME_RE = re.compile(r"mm\.[a-z_]+\.[a-z_]+\Z")
METRIC_UNIT_SUFFIXES = ("_bytes", "_ns", "_count", "_ratio")
CATALOG_HEADER = "### Metric catalog"
CATALOG_FAMILY_RE = re.compile(r"`(mm\.[a-z_]+)\.\*`")
CATALOG_TOKEN_RE = re.compile(r"`([^`]+)`")
BRACE_RE = re.compile(r"\{([^{}]*)\}")

# MML007 ---------------------------------------------------------------------
CKPT_STREAM_RE = re.compile(r"std::(?:ofstream|fstream)\b[^;]*")
CKPT_DIRS = ("src/ckpt/", "include/mm/ckpt/")

# MML008 ---------------------------------------------------------------------
# Matches `.Recv(`, `->RecvValue<T>(`, `.RecvBytes(` — the lookahead stops
# the alternatives from matching a prefix of the *Or deadline variants.
UNBOUNDED_RECV_RE = re.compile(
    r"(?:\.|->)\s*(Recv(?:Bytes|Value)?)(?=\s*[<(])")
COMM_DIRS = ("src/comm/", "include/mm/comm/")

# MML009 / MML103 ------------------------------------------------------------
FRAME_VERSION_RE = re.compile(
    r"\b(\w*[Ff]rame\w*)\s*(?:\.|->)\s*version\b")
SEQLOCK_EXEMPT = ("core/pcache", "core/optimistic_guard")

# MML011 ---------------------------------------------------------------------
# Two routes into node bytes: the NodeBlock union arms (`blk.leaf.keys`) or
# an identifier containing "node" touching a node field directly.
TREE_NODE_UNION_RE = re.compile(
    r"(?:\.|->)\s*(leaf|inner)\s*\.\s*(keys|vals|seps|children|fence)\b")
TREE_NODE_IDENT_RE = re.compile(
    r"\b(\w*[Nn]ode\w*)\s*(?:\.|->)\s*(hdr|keys|vals|seps|children|fence)\b")
TREE_NODE_EXEMPT = ("include/mm/index/", "src/index/", "tests/test_btree.cc")

# MML104 ---------------------------------------------------------------------
WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)\b")
RAND_RE = re.compile(r"(?<![\w:])(?:std::)?(s?rand)\s*\(")
TIME_RE = re.compile(r"(?<![\w:])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0|&|\))")
RANDOM_DEVICE_RE = re.compile(r"std::random_device\b")
# Benchmarks that intentionally measure real elapsed wall time.
MML104_BENCH_ALLOWLIST = (
    "bench/ledger.cc",
    "bench/readpath.cc",
    "bench/ycsb.cc",
)

# MML103 ---------------------------------------------------------------------
STORE_BYTES_RE = re.compile(r"OptimisticGuard::StoreBytes\s*\(")
BYTES_STORE_RE = re.compile(r"\b(\w+)\s*(?:->|\.)\s*bytes\s*\.\s*store\s*\(")
FRAME_MEMCPY_RE = re.compile(
    r"(?:std::)?memcpy\s*\(\s*(\w*[Ff]rame\w*)\s*(?:->|\.)\s*data\b")
VALIDATE_FAIL_RE = re.compile(r"if\s*\(\s*!\s*(\w+)\s*\.\s*Validate\s*\(\s*\)")
READBYTES_OUT_RE = re.compile(r"\.\s*ReadBytes\s*\([^;]*?&\s*(\w+)")

# MML102 ---------------------------------------------------------------------
DEFERRED_SINKS = ("Submit", "Push", "Post", "Enqueue", "Defer", "Schedule",
                  "Async", "Spawn", "thread")

# MML002 ---------------------------------------------------------------------
ACQUIRE_ASSIGN_RE = re.compile(
    r"(?:auto\s+|[\w:<>]+\s+)?(\w+)\s*=\s*"
    r"[\w.\->]*[Pp]ool[\w.\->]*(?:\.|->)\s*(Acquire(?:Zeroed)?)\s*\(")
MEMBER_ACQUIRE_RE = re.compile(
    r"[\w\]]+(?:\.|->)[\w.\->]*\s*=\s*"
    r"[\w.\->]*[Pp]ool[\w.\->]*(?:\.|->)\s*Acquire(?:Zeroed)?\s*\(")

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "case",
    "do", "else", "new", "delete", "break", "continue", "goto", "static",
    "const", "constexpr", "auto", "void", "bool", "int", "char", "float",
    "double", "true", "false", "nullptr", "this", "throw", "using",
    "namespace", "template", "typename", "class", "struct", "enum",
    "public", "private", "protected", "operator", "defined", "alignof",
    "decltype", "noexcept", "co_await", "co_return", "co_yield",
}

# Wrappers to unwrap when resolving an element/pointee class from a type.
UNWRAP_TEMPLATES = ("std::unique_ptr", "std::shared_ptr", "std::vector",
                    "std::deque", "std::optional", "std::atomic",
                    "unique_ptr", "shared_ptr", "vector", "deque",
                    "optional", "atomic")


# ---------------------------------------------------------------------------
# Findings, comment stripping, model dataclasses
# ---------------------------------------------------------------------------

@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving offsets and
    newlines so line numbers and brace depths stay valid."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = i
            while j < n and text[j] != "\n":
                out[j] = " "
                j += 1
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = i
            while j < n - 1 and not (text[j] == "*" and text[j + 1] == "/"):
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            if j < n - 1:
                out[j] = out[j + 1] = " "
                j += 2
            i = j
        elif c in ("\"", "'"):
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    out[j] = " "
                    j += 1
                    if j < n and text[j] != "\n":
                        out[j] = " "
                    j += 1
                    continue
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            i = j + 1
        else:
            i += 1
    return "".join(out)


@dataclass
class MutexField:
    qual_class: str            # "mm::storage::BufferManager"
    name: str                  # "mu_"
    rel: str
    line: int
    leaf: bool = False
    leaf_reason: str = ""
    declared_before: list[str] = dc_field(default_factory=list)  # raw refs
    declared_after: list[str] = dc_field(default_factory=list)

    @property
    def lock_id(self) -> str:
        return f"{self.qual_class}::{self.name}"


@dataclass
class ClassInfo:
    qual: str                  # fully qualified
    name: str                  # simple
    rel: str
    open: int                  # offset of '{' in its file's code
    close: int
    fields: dict[str, str] = dc_field(default_factory=dict)   # name -> type
    mutexes: dict[str, MutexField] = dc_field(default_factory=dict)
    guarded: dict[str, str] = dc_field(default_factory=dict)  # field -> mutex
    method_returns: dict[str, str] = dc_field(default_factory=dict)


@dataclass
class LockEvent:
    kind: str                  # "mutex" | "frame"
    var: str                   # RAII variable name
    expr: str                  # constructor argument text
    lock_id: str               # resolved id, "local:..." or "?:<expr>"
    resolved: bool
    pos: int                   # offset of the declaration in file code
    end: int                   # end of lock scope (trimmed at var.Unlock())
    line: int


@dataclass
class CallEvent:
    name: str                  # callee method name
    recv_class: str            # resolved receiver class ("" = same class)
    pos: int
    line: int


@dataclass
class FunctionInfo:
    qualname: str              # "mm::core::Service::PageFault"
    cls: str                   # enclosing qualified class or ""
    rel: str
    header: str                # declarator text before '('
    ret: str                   # return-type text (best effort)
    open: int                  # offset of body '{'
    close: int                 # offset just past body '}'
    params: dict[str, str] = dc_field(default_factory=dict)
    locals: dict[str, str] = dc_field(default_factory=dict)
    lock_events: list[LockEvent] = dc_field(default_factory=list)
    calls: list[CallEvent] = dc_field(default_factory=list)


class SourceFile:
    """One parsed file: original text, comment-stripped code, suppressions,
    leaf-lock markers, and a brace map."""

    def __init__(self, rel: str, text: str):
        self.rel = rel.replace(os.sep, "/")
        self.text = text
        self.code = strip_comments_and_strings(text)
        self.lines = text.split("\n")
        self.code_lines = self.code.split("\n")
        self.suppressions: dict[int, set[str]] = {}
        self.bad_suppressions: list[Finding] = []
        self.leaf_marks: dict[int, str] = {}   # line -> reason
        for idx, line in enumerate(self.lines):
            for m in ALLOW_RE.finditer(line):
                rule, reason = m.group(1), m.group(2).strip()
                if not reason:
                    self.bad_suppressions.append(Finding(
                        self.rel, idx + 1, rule,
                        "suppression without a reason "
                        "(use `mm-verify: allow(MMLnnn why)`)"))
                    continue
                self.suppressions.setdefault(idx + 1, set()).add(rule)
                self.suppressions.setdefault(idx + 2, set()).add(rule)
            lm = LEAF_RE.search(line)
            if lm:
                # Marker covers its own line and the next (comment above).
                self.leaf_marks[idx + 1] = lm.group(1).strip()
                self.leaf_marks[idx + 2] = lm.group(1).strip()
        self._brace_pairs: list[tuple[int, int]] | None = None
        self._line_starts = list(itertools.accumulate(
            (len(line) + 1 for line in self.code_lines[:-1]), initial=0))

    def suppressed(self, line: int, rule: str) -> bool:
        return rule in self.suppressions.get(line, set())

    def report(self, out: list[Finding], line: int, rule: str,
               message: str) -> None:
        """Appends a finding at `line` unless an allow-comment covers it."""
        if not self.suppressed(line, rule):
            out.append(Finding(self.rel, line, rule, message))

    def line_of(self, pos: int) -> int:
        return bisect.bisect_right(self._line_starts, pos)

    def brace_pairs(self) -> list[tuple[int, int]]:
        """All matched {...} pairs as (open, close) offsets, sorted by open.
        close is the offset of the '}' itself."""
        if self._brace_pairs is None:
            pairs: list[tuple[int, int]] = []
            stack: list[int] = []
            for i, c in enumerate(self.code):
                if c == "{":
                    stack.append(i)
                elif c == "}" and stack:
                    pairs.append((stack.pop(), i))
            pairs.sort()
            self._brace_pairs = pairs
        return self._brace_pairs

    def innermost_brace(self, pos: int,
                        within: tuple[int, int] | None = None
                        ) -> tuple[int, int] | None:
        best = None
        for o, c in self.brace_pairs():
            if o < pos <= c:
                if within is not None and not (within[0] <= o and
                                               c <= within[1]):
                    continue
                if best is None or o > best[0]:
                    best = (o, c)
        return best


class Model:
    def __init__(self) -> None:
        self.files: dict[str, SourceFile] = {}       # every scanned file
        self.classes: dict[str, ClassInfo] = {}      # qual -> info
        self.by_simple: dict[str, list[str]] = {}    # simple -> [qual...]
        # qualname -> every body with that name (overloads, #if twins).
        self.functions: dict[str, list[FunctionInfo]] = {}

    def bodies(self) -> list[FunctionInfo]:
        return [fi for fis in self.functions.values() for fi in fis]

    def enclosing_function(self, rel: str, pos: int) -> FunctionInfo | None:
        return next((fi for fi in self.bodies()
                     if fi.rel == rel and fi.open < pos < fi.close), None)

    def class_by_name(self, name: str) -> ClassInfo | None:
        """Resolve a possibly-unqualified class name to a unique ClassInfo."""
        name = name.strip()
        if not name:
            return None
        if name in self.classes:
            return self.classes[name]
        # Suffix match: "TierStore" or "storage::TierStore".
        tail = name.split("::")[-1]
        cands = [q for q in self.by_simple.get(tail, [])
                 if q == name or q.endswith("::" + name)]
        if len(cands) == 1:
            return self.classes[cands[0]]
        return None

    def lock_field(self, ref: str, ctx_class: str = "") -> MutexField | None:
        """Resolve a lock reference like `mu_`, `TierStore::mu_` or
        `mm::util::BlockingQueue::mu_` (optionally relative to ctx_class)."""
        ref = ref.strip()
        if "::" in ref:
            cls_part, _, fld = ref.rpartition("::")
            ci = self.class_by_name(cls_part)
            if ci is not None:
                return ci.mutexes.get(fld)
            return None
        ci = self.classes.get(ctx_class)
        if ci is not None:
            return ci.mutexes.get(ref)
        return None

    def all_mutexes(self) -> list[MutexField]:
        out = []
        for ci in self.classes.values():
            out.extend(ci.mutexes.values())
        return out


# ---------------------------------------------------------------------------
# Type-text helpers
# ---------------------------------------------------------------------------

def base_type(type_text: str) -> str:
    """`std::vector<std::unique_ptr<TierStore>>&` -> `TierStore` (unwraps
    known wrappers); `VectorMeta*` -> `VectorMeta`."""
    t = type_text.strip()
    for kw in ("const", "mutable", "static", "inline", "constexpr",
               "volatile", "typename"):
        t = re.sub(r"\b" + kw + r"\b", " ", t)
    t = t.strip().rstrip("&*").strip()
    # Unwrap known single-argument wrappers (outermost first).
    for _ in range(4):
        m = re.match(r"([\w:]+)\s*<(.*)>\s*$", t)
        if not m:
            break
        outer, inner = m.group(1), m.group(2)
        if outer not in UNWRAP_TEMPLATES:
            # Template with no user-class element semantics (map/pair/...):
            # keep the outer name so resolution cleanly fails.
            return outer
        # First top-level template argument.
        depth = 0
        cut = len(inner)
        for i, c in enumerate(inner):
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
            elif c == "," and depth == 0:
                cut = i
                break
        t = inner[:cut].strip().rstrip("&*").strip()
    m = re.search(r"([\w:]+)\s*$", t)
    return m.group(1) if m else t


def split_top_commas(s: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, c in enumerate(s):
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    parts.append(s[start:])
    return [p.strip() for p in parts if p.strip()]


# ---------------------------------------------------------------------------
# Pass 1: declarations (namespaces, classes, fields, annotations)
# ---------------------------------------------------------------------------

NAMESPACE_RE = re.compile(r"\bnamespace\s+([\w:]*)\s*\{")
CLASS_RE = re.compile(
    r"(?<![\w:])(class|struct)\s+(?:MM_\w+(?:\s*\([^()]*\))?\s*)?(\w+)"
    r"(?:\s+final)?(?:\s*:\s*[^;{]*)?\s*\{")
ANNOT_RE = re.compile(
    r"\b(MM_GUARDED_BY|MM_PT_GUARDED_BY|MM_ACQUIRED_BEFORE|"
    r"MM_ACQUIRED_AFTER)\s*\(([^()]*)\)")

def collect_scopes(sf: SourceFile) -> list[tuple[str, str, int, int]]:
    """Returns [(kind, name, open, close)] for namespace/class/struct scopes,
    sorted by open offset."""
    scopes: list[tuple[str, str, int, int]] = []
    pair_by_open = dict(sf.brace_pairs())
    for m in NAMESPACE_RE.finditer(sf.code):
        o = m.end() - 1
        c = pair_by_open.get(o)
        if c is not None:
            scopes.append(("namespace", m.group(1), o, c))
    for m in CLASS_RE.finditer(sf.code):
        # Exclude `enum class X {`.
        before = sf.code[max(0, m.start() - 8):m.start()]
        if re.search(r"\benum\s*$", before):
            continue
        o = m.end() - 1
        c = pair_by_open.get(o)
        if c is not None:
            scopes.append(("class", m.group(2), o, c))
    scopes.sort(key=lambda s: s[2])
    return scopes


def qual_at(scopes: list[tuple[str, str, int, int]], pos: int,
            classes_only: bool = False) -> str:
    parts = []
    for kind, name, o, c in scopes:
        if o < pos <= c and name:
            if classes_only and kind != "class":
                continue
            parts.append(name)
    return "::".join(parts)


def parse_declarations(model: Model, sf: SourceFile,
                       scopes: list[tuple[str, str, int, int]]) -> None:
    for kind, name, o, c in scopes:
        if kind != "class":
            continue
        qual = qual_at(scopes, o, classes_only=False)
        qual = f"{qual}::{name}" if qual else name
        ci = model.classes.get(qual)
        if ci is None:
            ci = ClassInfo(qual=qual, name=name, rel=sf.rel, open=o, close=c)
            model.classes[qual] = ci
            model.by_simple.setdefault(name, []).append(qual)
        _parse_class_body(model, sf, ci)


def _parse_class_body(model: Model, sf: SourceFile, ci: ClassInfo) -> None:
    """Walk the class body at its own depth, splitting statements at `;`
    and skipping nested braces (methods, nested classes, initializers)."""
    code = sf.code
    i = ci.open + 1
    stmt_start = i
    pair_by_open = dict(sf.brace_pairs())
    while i < ci.close:
        ch = code[i]
        if ch == "{":
            header = code[stmt_start:i]
            _classify_member(model, sf, ci, header, stmt_start)
            close = pair_by_open.get(i, ci.close)
            # Nested classes are parsed by their own ClassInfo pass; method
            # bodies are handled by the function pass. Either way, skip.
            i = close + 1
            if i < ci.close and code[i] == ";":
                i += 1
            stmt_start = i
            continue
        if ch == ";":
            stmt = code[stmt_start:i]
            _classify_member(model, sf, ci, stmt, stmt_start)
            i += 1
            stmt_start = i
            continue
        i += 1


def _classify_member(model: Model, sf: SourceFile, ci: ClassInfo,
                     stmt: str, stmt_pos: int) -> None:
    # Strip access specifiers and macros that precede the declaration.
    s = re.sub(r"\b(?:public|private|protected)\s*:", " ", stmt)
    s = s.strip()
    if not s or s.startswith(("#", "friend", "using", "typedef", "template",
                              "enum")):
        return
    annots = list(ANNOT_RE.finditer(s))
    bare = ANNOT_RE.sub(" ", s)
    # Default member init tails.
    bare = re.sub(r"=\s*[^;]*$", " ", bare).strip()
    bare = re.sub(r"\{[^{}]*\}\s*$", " ", bare).strip()

    # Method declaration? Record reference/pointer accessor return classes
    # so `runtime(node).Submit(...)` chains resolve.
    mm = re.match(
        r"^(?:virtual\s+|static\s+|inline\s+|constexpr\s+|explicit\s+|"
        r"\[\[\w+\]\]\s*)*"
        r"([\w:]+(?:<[^;{}]*>)?\s*[&\*]?)\s+(\w+)\s*\(", bare)
    if "(" in bare:
        if mm and mm.group(2) not in KEYWORDS:
            ret = mm.group(1)
            ci.method_returns.setdefault(mm.group(2), base_type(ret))
        return

    fm = re.match(r"^(?:mutable\s+|static\s+)*(.+?)\s+(\w+)\s*$", bare)
    if not fm:
        return
    type_text, fname = fm.group(1).strip(), fm.group(2)
    if type_text in KEYWORDS and type_text not in ("bool", "int", "char",
                                                   "float", "double", "auto",
                                                   "void"):
        return
    ci.fields[fname] = type_text
    line = sf.line_of(stmt_pos + stmt.find(stmt.strip()[:1] or " "))
    # Anchor on the declaration's last line (where the field name sits) so
    # leaf-lock markers/suppressions above multi-line decls still align.
    decl_line = sf.line_of(stmt_pos + len(stmt.rstrip()) - 1)

    plain = re.sub(r"\b(?:mutable|static|const)\b", " ", type_text).strip()
    if plain in ("Mutex", "mm::Mutex", "util::Mutex", "mm::util::Mutex"):
        mf = MutexField(qual_class=ci.qual, name=fname, rel=sf.rel,
                        line=decl_line)
        reason = sf.leaf_marks.get(decl_line) or sf.leaf_marks.get(line)
        if reason is not None:
            mf.leaf, mf.leaf_reason = True, reason
        for a in annots:
            refs = split_top_commas(a.group(2))
            if a.group(1) == "MM_ACQUIRED_BEFORE":
                mf.declared_before.extend(refs)
            elif a.group(1) == "MM_ACQUIRED_AFTER":
                mf.declared_after.extend(refs)
        ci.mutexes[fname] = mf
        return

    for a in annots:
        if a.group(1) in ("MM_GUARDED_BY", "MM_PT_GUARDED_BY"):
            ci.guarded[fname] = a.group(2).strip()


# ---------------------------------------------------------------------------
# Pass 2: function bodies
# ---------------------------------------------------------------------------

LOCK_DECL_RE = re.compile(
    r"\b(?:mm::)?(?:util::)?(MutexLock|FrameWriteGuard)\s+(\w+)\s*"
    r"[({]\s*([^;{}]*?)\s*[)}]\s*;")
LOCAL_DECL_RE = re.compile(
    r"(?:^|[;{}()]\s*)(?:const\s+)?([\w:]+(?:<[^;=(){}]*>)?)\s*([&\*]*)\s+"
    r"(\w+)\s*(?==|;|\{)")
RANGE_FOR_RE = re.compile(
    r"for\s*\(\s*(?:const\s+)?auto\s*[&\*]*\s+(\w+)\s*:\s*([\w.\->]+)\s*\)")
AUTO_DEREF_RE = re.compile(
    r"auto\s*([&\*]?)\s+(\w+)\s*=\s*(?:&|\*)?\s*([\w.\->]+?)\s*;")
RECV_CALL_RE = re.compile(r"\b(\w+)\s*(\.|->)\s*(\w+)\s*\(")
CHAIN_CALL_RE = re.compile(
    r"(?:\b(\w+)\s*(?:\.|->)\s*)?\b(\w+)\s*\(\s*[^()]*\)\s*\.\s*(\w+)\s*\(")
PLAIN_CALL_RE = re.compile(r"(?<![\w.>:])([A-Za-z_]\w*)\s*\(")
OPERATOR_CALL_RE = re.compile(r"\boperator\s*(?:\[\s*\]|\(\s*\))$")


def find_function_bodies(sf: SourceFile,
                         scopes: list[tuple[str, str, int, int]]
                         ) -> list[tuple[str, int, int]]:
    """[(header_text, open, close)] for function definitions, skipping
    bodies nested inside an already-collected function (lambdas, local
    structs are analyzed as part of their enclosing function)."""
    out: list[tuple[str, int, int]] = []
    scope_braces = {o for _, _, o, _ in scopes}
    last_end = -1
    for o, c in sf.brace_pairs():
        if o <= last_end:
            continue
        if o in scope_braces:
            continue
        header_start = max(sf.code.rfind(";", 0, o), sf.code.rfind("{", 0, o),
                           sf.code.rfind("}", 0, o)) + 1
        header = sf.code[header_start:o].strip()
        if not _function_header(header):
            continue
        out.append((header, o, c))
        last_end = c
    return out


def _function_header(header: str) -> bool:
    h = header.rstrip()
    if not h:
        return False
    for _ in range(8):
        h = re.sub(r"(?:const|noexcept|override|final)\s*$", "", h).rstrip()
        h = re.sub(r"->\s*[\w:<>&\*\s]+$", "", h).rstrip()
        m = re.search(r"(?:MM_\w+|__attribute__)\s*\([^()]*\)\s*$", h)
        if m:
            h = h[:m.start()].rstrip()
        elif h.endswith("MM_NO_THREAD_SAFETY_ANALYSIS"):
            h = h[:-len("MM_NO_THREAD_SAFETY_ANALYSIS")].rstrip()
        else:
            break
    if not h.endswith(")"):
        return False
    depth = 0
    for i in range(len(h) - 1, -1, -1):
        ch = h[i]
        if ch == ")":
            depth += 1
        elif ch == "(":
            depth -= 1
            if depth == 0:
                before = h[:i].rstrip()
                if OPERATOR_CALL_RE.search(before):
                    return True  # `operator[](`/`operator()(` are not lambdas
                kw = re.search(r"([\w\]]+)\s*$", before)
                if kw is None:
                    return False  # lambda: `[...](` has no declarator name
                word = kw.group(1)
                if word in ("if", "for", "while", "switch", "catch",
                            "return") or word.endswith("]"):
                    return False
                return True
    return False


def _split_header(header: str) -> tuple[str, str, str]:
    """-> (ret_and_name, name, params_text). Handles `Class::Method`,
    constructor-initializer tails, and operator names."""
    h = header
    # Cut a constructor initializer list: `Ctor(args) : a_(x), b_(y)`.
    # Find the top-level '(' matching the FIRST declarator parens.
    m = re.search(r"((?:[\w~]+\s*::\s*)*"
                  r"(?:operator\s*(?:\(\s*\)|[^\s(]+)|[\w~]+))\s*\(", h)
    if not m:
        return h, "", ""
    name = re.sub(r"\s+", "", m.group(1))
    # Matching close paren for the declarator.
    depth, i = 0, m.end() - 1
    while i < len(h):
        if h[i] == "(":
            depth += 1
        elif h[i] == ")":
            depth -= 1
            if depth == 0:
                break
        i += 1
    params = h[m.end():i] if i < len(h) else ""
    ret = h[:m.start()].strip()
    return ret, name, params


def parse_functions_textual(model: Model, sf: SourceFile,
                            scopes: list[tuple[str, str, int, int]]) -> None:
    for header, o, c in find_function_bodies(sf, scopes):
        ret, name, params_text = _split_header(header)
        if not name:
            continue
        simple = name.split("::")[-1]
        cls_qual = ""
        if "::" in name:
            prefix = name.rpartition("::")[0]
            ns = qual_at(scopes, o)
            ci = (model.class_by_name(f"{ns}::{prefix}" if ns else prefix)
                  or model.class_by_name(prefix))
            cls_qual = ci.qual if ci else prefix
        else:
            enclosing = qual_at(scopes, o)
            if enclosing and model.classes.get(enclosing):
                cls_qual = enclosing
            else:
                # Free function inside namespaces only.
                cls_qual = ""
                ns_cls = qual_at(scopes, o, classes_only=True)
                if ns_cls:
                    ci = model.class_by_name(ns_cls)
                    cls_qual = ci.qual if ci else ""
        qualname = f"{cls_qual}::{simple}" if cls_qual else (
            f"{qual_at(scopes, o)}::{simple}" if qual_at(scopes, o)
            else simple)
        fi = FunctionInfo(qualname=qualname, cls=cls_qual, rel=sf.rel,
                          header=header, ret=ret, open=o, close=c + 1)
        for p in split_top_commas(params_text):
            pm = re.match(r"(.+?)\s*[&\*]*\s*(\w+)\s*(?:=.*)?$", p)
            if pm and pm.group(2) not in KEYWORDS:
                fi.params[pm.group(2)] = base_type(pm.group(1))
        _parse_body(model, sf, fi)
        model.functions.setdefault(qualname, []).append(fi)


def _parse_body(model: Model, sf: SourceFile, fi: FunctionInfo) -> None:
    body = sf.code[fi.open + 1:fi.close - 1]
    base = fi.open + 1
    ci = model.classes.get(fi.cls)

    # Locals --------------------------------------------------------------
    for m in LOCAL_DECL_RE.finditer(body):
        t, name = m.group(1), m.group(3)
        if t in KEYWORDS or name in KEYWORDS or t == "auto":
            continue
        fi.locals.setdefault(name, base_type(t))
    for m in RANGE_FOR_RE.finditer(body):
        var, container = m.group(1), m.group(2)
        cont_type = _expr_type(model, fi, ci, container)
        if cont_type:
            fi.locals[var] = cont_type
    for m in AUTO_DEREF_RE.finditer(body):
        var, rhs = m.group(2), m.group(3)
        if var in fi.locals:
            continue
        t = _expr_type(model, fi, ci, rhs)
        if t:
            fi.locals[var] = t

    # Lock events ---------------------------------------------------------
    for m in LOCK_DECL_RE.finditer(body):
        kind = "mutex" if m.group(1) == "MutexLock" else "frame"
        var, expr = m.group(2), m.group(3)
        pos = base + m.start()
        scope = sf.innermost_brace(pos, (fi.open, fi.close - 1))
        end = scope[1] if scope else fi.close - 1
        un = re.search(r"\b" + re.escape(var) + r"\s*\.\s*Unlock\s*\(",
                       sf.code[pos:end])
        if un:
            end = pos + un.start()
        lock_id, resolved = _resolve_lock_expr(model, fi, ci, expr)
        fi.lock_events.append(LockEvent(
            kind=kind, var=var, expr=expr, lock_id=lock_id,
            resolved=resolved, pos=pos, end=end, line=sf.line_of(pos)))

    # Call events ---------------------------------------------------------
    seen: set[int] = set()
    for m in RECV_CALL_RE.finditer(body):
        recv, callee = m.group(1), m.group(3)
        if callee in KEYWORDS or recv in KEYWORDS:
            continue
        t = _expr_type(model, fi, ci, recv)
        pos = base + m.start(3)
        seen.add(pos)
        fi.calls.append(CallEvent(name=callee, recv_class=t or "?",
                                  pos=pos, line=sf.line_of(pos)))
    for m in CHAIN_CALL_RE.finditer(body):
        recv, accessor, callee = m.group(1), m.group(2), m.group(3)
        if callee in KEYWORDS or accessor in KEYWORDS:
            continue
        # `runtime(n).Submit(` on this class, or `svc.runtime(n).Submit(`
        # on a typed receiver.
        owner = ci
        if recv is not None:
            rt = _expr_type(model, fi, ci, recv)
            owner = model.class_by_name(rt) if rt else None
        t = owner.method_returns.get(accessor, "") if owner else ""
        pos = base + m.start(3)
        seen.add(pos)
        fi.calls.append(CallEvent(name=callee, recv_class=t or "?",
                                  pos=pos, line=sf.line_of(pos)))
    for m in PLAIN_CALL_RE.finditer(body):
        callee = m.group(1)
        pos = base + m.start(1)
        if pos in seen or callee in KEYWORDS or callee.startswith("MM_"):
            continue
        if callee.isupper() or not fi.cls:
            continue
        fi.calls.append(CallEvent(name=callee, recv_class=fi.cls,
                                  pos=pos, line=sf.line_of(pos)))


def _expr_type(model: Model, fi: FunctionInfo, ci: ClassInfo | None,
               expr: str) -> str:
    """Best-effort class name for a receiver expression: a local, a param,
    a member field, a one-step member chain, or *deref of those."""
    e = expr.strip().lstrip("*&").strip()
    if not e:
        return ""
    if e == "this":
        return fi.cls
    if re.fullmatch(r"\w+", e):
        for table in (fi.locals, fi.params):
            if e in table:
                return table[e]
        if ci is not None and e in ci.fields:
            return base_type(ci.fields[e])
        if ci is not None and e in ci.method_returns:
            return ci.method_returns[e]
        return ""
    # One member step: `meta.stager`, `it->second`, `shard.mu` receivers.
    m = re.fullmatch(r"([\w.\->]+?)(?:\.|->)(\w+)", e)
    if m:
        owner = _expr_type(model, fi, ci, m.group(1))
        oc = model.class_by_name(owner) if owner else None
        if oc is not None and m.group(2) in oc.fields:
            return base_type(oc.fields[m.group(2)])
        if oc is not None and m.group(2) in oc.method_returns:
            return oc.method_returns[m.group(2)]
    # Accessor call: `runtime(node)` / `tier(i)`.
    m = re.fullmatch(r"(\w+)\s*\([^()]*\)", e)
    if m and ci is not None:
        return ci.method_returns.get(m.group(1), "")
    return ""


def _resolve_lock_expr(model: Model, fi: FunctionInfo, ci: ClassInfo | None,
                       expr: str) -> tuple[str, bool]:
    e = expr.strip().lstrip("*&").strip()
    if re.fullmatch(r"\w+", e):
        if ci is not None and e in ci.mutexes:
            return ci.mutexes[e].lock_id, True
        t = fi.locals.get(e) or fi.params.get(e)
        if t in ("Mutex", "mm::Mutex", "util::Mutex", "mm::util::Mutex"):
            return f"local:{fi.qualname}::{e}", True
        return f"?:{expr}", False
    m = re.fullmatch(r"([\w.\->()\[\]]+?)(?:\.|->)(\w+)", e)
    if m:
        owner = _expr_type(model, fi, ci, m.group(1))
        oc = model.class_by_name(owner) if owner else None
        if oc is not None and m.group(2) in oc.mutexes:
            return oc.mutexes[m.group(2)].lock_id, True
    return f"?:{expr}", False


# ---------------------------------------------------------------------------
# Lock summaries: which locks does calling f acquire (transitively)?
# ---------------------------------------------------------------------------

def resolve_callee(model: Model, fi: FunctionInfo,
                   call: CallEvent) -> str | None:
    """Qualified name of the modeled function `call` reaches, or None."""
    if call.recv_class and call.recv_class != "?":
        ci = model.class_by_name(call.recv_class)
        owner = ci.qual if ci is not None else call.recv_class
        if f"{owner}::{call.name}" in model.functions:
            return f"{owner}::{call.name}"
    if not fi.cls or call.recv_class != fi.cls:
        return None
    # An implicit-this call that names no method is a free function in an
    # enclosing namespace (e.g. a file-local helper taking the object as a
    # parameter).
    ns = fi.cls.rpartition("::")[0]
    while ns:
        free = model.functions.get(f"{ns}::{call.name}")
        if free is not None and not free[0].cls:
            return f"{ns}::{call.name}"
        ns = ns.rpartition("::")[0]
    return None


def compute_summaries(model: Model
                      ) -> dict[str, dict[str, tuple[str, int, str]]]:
    """qualname -> {lock_id: (rel, line, via)} over the union of every body
    with that name, where `via` describes the call chain that reaches the
    acquisition."""
    summaries: dict[str, dict[str, tuple[str, int, str]]] = {
        qn: {} for qn in model.functions}
    for fi in model.bodies():
        for ev in fi.lock_events:
            if ev.kind == "mutex" and ev.resolved:
                summaries[fi.qualname].setdefault(ev.lock_id,
                                                  (fi.rel, ev.line, ""))
    for _ in range(CALL_DEPTH):
        changed = False
        for fi in model.bodies():
            mine = summaries[fi.qualname]
            for call in fi.calls:
                callee = resolve_callee(model, fi, call)
                if callee is None or callee == fi.qualname:
                    continue
                for lock_id, (rel, line, via) in summaries[callee].items():
                    if lock_id not in mine:
                        chain = callee.split("::")[-1]
                        if via:
                            chain += " -> " + via
                        mine[lock_id] = (rel, line, chain)
                        changed = True
        if not changed:
            break
    return summaries


# ---------------------------------------------------------------------------
# MML101: lock-order graph, declaration coverage, cycles, DOT
# ---------------------------------------------------------------------------

@dataclass
class LockEdge:
    src: str
    dst: str
    rel: str
    line: int
    via: str      # "" for a lexically nested pair, else the call chain
    declared: bool = False


def observed_edges(model: Model, summaries) -> list[LockEdge]:
    edges: list[LockEdge] = []
    seen: set[tuple[str, str, str, int]] = set()
    for fi in model.bodies():
        mutex_events = [e for e in fi.lock_events if e.kind == "mutex"]
        for outer in mutex_events:
            if not outer.resolved:
                continue
            for inner in mutex_events:
                if inner is outer:
                    continue
                if outer.pos < inner.pos < outer.end and inner.resolved:
                    key = (outer.lock_id, inner.lock_id, fi.rel, inner.line)
                    if key not in seen:
                        seen.add(key)
                        edges.append(LockEdge(outer.lock_id, inner.lock_id,
                                              fi.rel, inner.line, ""))
            for call in fi.calls:
                if not (outer.pos < call.pos < outer.end):
                    continue
                callee = resolve_callee(model, fi, call)
                if callee is None or callee == fi.qualname:
                    continue
                # Re-acquiring the outer lock through a callee yields a
                # self-edge: a real deadlock with non-reentrant mm::Mutex.
                for lock_id, (rel, line, via) in summaries[callee].items():
                    chain = callee.split("::")[-1]
                    if via:
                        chain += " -> " + via
                    key = (outer.lock_id, lock_id, fi.rel, call.line)
                    if key not in seen:
                        seen.add(key)
                        edges.append(LockEdge(outer.lock_id, lock_id,
                                              fi.rel, call.line, chain))
    return edges


def declared_edges(model: Model) -> tuple[list[LockEdge], list[Finding]]:
    edges: list[LockEdge] = []
    findings: list[Finding] = []
    for mf in model.all_mutexes():
        for ref in mf.declared_before:
            other = model.lock_field(ref, ctx_class=mf.qual_class)
            if other is None:
                findings.append(Finding(
                    mf.rel, mf.line, "MML101",
                    f"MM_ACQUIRED_BEFORE({ref}) on {mf.lock_id} names an "
                    "unknown mutex (use Class::field or a same-class "
                    "field name)"))
                continue
            edges.append(LockEdge(mf.lock_id, other.lock_id, mf.rel,
                                  mf.line, "", declared=True))
        for ref in mf.declared_after:
            other = model.lock_field(ref, ctx_class=mf.qual_class)
            if other is None:
                findings.append(Finding(
                    mf.rel, mf.line, "MML101",
                    f"MM_ACQUIRED_AFTER({ref}) on {mf.lock_id} names an "
                    "unknown mutex"))
                continue
            edges.append(LockEdge(other.lock_id, mf.lock_id, mf.rel,
                                  mf.line, "", declared=True))
    return edges, findings


def _find_cycles(adj: dict[str, set[str]]) -> list[list[str]]:
    """Simple cycles via SCC + per-SCC DFS; good enough for lock graphs."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(v: str) -> None:
        work = [(v, iter(sorted(adj.get(v, ()))))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj.get(w, ())))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)

    for v in sorted(adj):
        if v not in index:
            strongconnect(v)

    cycles: list[list[str]] = []
    for scc in sccs:
        members = set(scc)
        if len(scc) == 1:
            v = scc[0]
            if v in adj.get(v, ()):
                cycles.append([v, v])
            continue
        # One representative cycle per SCC: walk from the smallest node.
        start = min(scc)
        path = [start]
        seen_local = {start}
        node = start
        while True:
            nxts = [n for n in sorted(adj.get(node, ())) if n in members]
            if not nxts:
                break
            nxt = next((n for n in nxts if n == start), nxts[0])
            if nxt == start:
                path.append(start)
                cycles.append(path)
                break
            if nxt in seen_local:
                i = path.index(nxt)
                cycles.append(path[i:] + [nxt])
                break
            path.append(nxt)
            seen_local.add(nxt)
            node = nxt
    return cycles


def check_mml101(model: Model, summaries, dot_path: str | None,
                 verbose: bool = False) -> list[Finding]:
    findings: list[Finding] = []
    obs = observed_edges(model, summaries)
    decl, findings_decl = declared_edges(model)
    findings.extend(findings_decl)

    declared_pairs = {(e.src, e.dst) for e in decl}
    leaf_ids = {mf.lock_id: mf for mf in model.all_mutexes() if mf.leaf}

    for e in obs:
        sf = model.files[e.rel]
        if e.src == e.dst:
            sf.report(findings, e.line, "MML101",
                      f"{e.src} re-acquired while already held"
                      + (f" (via {e.via})" if e.via else "")
                      + " — mm::Mutex is non-reentrant; this self-deadlocks")
            continue
        if e.dst.startswith("local:") or e.src.startswith("local:"):
            continue  # function-local mutexes have no global ordering
        if (e.src, e.dst) in declared_pairs:
            continue
        if e.dst in leaf_ids:
            continue  # leaf locks never nest further; declaration waived
        via = f" (via {e.via})" if e.via else ""
        sf.report(findings, e.line, "MML101",
                  f"nested acquisition {e.src} -> {e.dst}{via} is not "
                  f"declared: add MM_ACQUIRED_BEFORE on {e.src} (or "
                  f"MM_ACQUIRED_AFTER on {e.dst}) — the lock hierarchy is an "
                  "explicit contract (DESIGN.md §10)")

    # Cycle detection over observed + declared edges.
    adj: dict[str, set[str]] = {}
    witness: dict[tuple[str, str], LockEdge] = {}
    for e in obs + decl:
        if e.src.startswith(("local:", "?:")) or \
                e.dst.startswith(("local:", "?:")):
            continue
        if e.src == e.dst:
            continue  # self-edges reported above
        adj.setdefault(e.src, set()).add(e.dst)
        adj.setdefault(e.dst, set())
        witness.setdefault((e.src, e.dst), e)
    for cyc in _find_cycles(adj):
        legs = []
        for a, b in zip(cyc, cyc[1:]):
            w = witness.get((a, b))
            if w is None:
                legs.append(f"{a} -> {b}")
            elif w.declared:
                legs.append(f"{a} -> {b} (declared at {w.rel}:{w.line})")
            else:
                via = f" via {w.via}" if w.via else ""
                legs.append(f"{a} -> {b} (held at {w.rel}:{w.line}{via})")
        first = witness.get((cyc[0], cyc[1]))
        rel = first.rel if first else "<graph>"
        line = first.line if first else 0
        findings.append(Finding(
            rel, line, "MML101",
            "lock-order cycle (potential deadlock): " + "; ".join(legs)))

    if dot_path:
        write_dot(model, obs, decl, leaf_ids, dot_path)
    if verbose:
        for e in obs:
            print(f"  edge {e.src} -> {e.dst} at {e.rel}:{e.line}"
                  + (f" via {e.via}" if e.via else ""), file=sys.stderr)
    return findings


def write_dot(model: Model, obs: list[LockEdge], decl: list[LockEdge],
              leaf_ids: dict, path: str) -> None:
    nodes: set[str] = set()
    for e in obs + decl:
        if not e.src.startswith(("local:", "?:")):
            nodes.add(e.src)
        if not e.dst.startswith(("local:", "?:")):
            nodes.add(e.dst)
    for mf in model.all_mutexes():
        nodes.add(mf.lock_id)
    obs_pairs = {(e.src, e.dst) for e in obs
                 if not e.src.startswith(("local:", "?:"))
                 and not e.dst.startswith(("local:", "?:"))}
    lines = ["// Generated by ci/mm_verify.py — the MegaMmap lock hierarchy.",
             "// Solid edges were observed in code (nested acquisitions);",
             "// dashed edges are declared via MM_ACQUIRED_BEFORE/AFTER only.",
             "digraph lock_hierarchy {",
             "  rankdir=LR;",
             "  node [shape=box, fontname=\"monospace\", fontsize=10];"]
    for n in sorted(nodes):
        style = ", style=filled, fillcolor=lightgrey" if n in leaf_ids else ""
        label = n[len("mm::"):] if n.startswith("mm::") else n
        lines.append(f"  \"{n}\" [label=\"{label}\"{style}];")
    emitted: set[tuple[str, str]] = set()
    for e in obs:
        if (e.src, e.dst) in emitted or \
                e.src.startswith(("local:", "?:")) or \
                e.dst.startswith(("local:", "?:")):
            continue
        emitted.add((e.src, e.dst))
        lines.append(f"  \"{e.src}\" -> \"{e.dst}\" "
                     f"[label=\"{e.rel}:{e.line}\", fontsize=8];")
    for e in decl:
        if (e.src, e.dst) in emitted or (e.src, e.dst) in obs_pairs:
            continue
        emitted.add((e.src, e.dst))
        lines.append(f"  \"{e.src}\" -> \"{e.dst}\" [style=dashed];")
    lines.append("}")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# MML102: guarded-field escapes
# ---------------------------------------------------------------------------

def check_mml102(model: Model) -> list[Finding]:
    findings: list[Finding] = []
    for fi in model.bodies():
        ci = model.classes.get(fi.cls)
        if ci is None or not ci.guarded:
            continue
        sf = model.files[fi.rel]
        body = sf.code[fi.open + 1:fi.close - 1]
        base = fi.open + 1
        names = "|".join(re.escape(g) for g in ci.guarded)

        def emit(pos: int, msg: str) -> None:
            sf.report(findings, sf.line_of(pos), "MML102", msg)

        # E1a: return &guarded;
        for m in re.finditer(r"\breturn\s*&\s*(" + names + r")\b", body):
            g = m.group(1)
            emit(base + m.start(),
                 f"address of {ci.name}::{g} (guarded by {ci.guarded[g]}) "
                 "escapes via return — the caller dereferences it outside "
                 "the lock scope")
        # E1b: by-reference/pointer return of the guarded field itself.
        if re.search(r"[&\*]\s*$", fi.ret.strip()) or \
                fi.ret.strip().endswith(("&", "*")):
            for m in re.finditer(r"\breturn\s+(" + names + r")\s*;", body):
                g = m.group(1)
                emit(base + m.start(),
                     f"{ci.name}::{g} (guarded by {ci.guarded[g]}) is "
                     "returned by reference — the caller reads it outside "
                     "the lock scope")
        # E2: stored into a longer-lived object: obj->p = &guarded;
        for m in re.finditer(
                r"([\w\]\)]+\s*(?:->|\.)\s*\w+)\s*=\s*&\s*("
                + names + r")\b", body):
            g = m.group(2)
            emit(base + m.start(2),
                 f"address of {ci.name}::{g} (guarded by {ci.guarded[g]}) "
                 f"stored into `{m.group(1).strip()}` — the pointer outlives "
                 "the lock scope")
        # E3: by-reference lambda capture handed to a deferred sink, or
        # stored into a member callback slot.
        for m in re.finditer(r"\[([^\]\[]*&[^\]\[]*)\]", body):
            lb = body.find("{", m.end())
            if lb < 0:
                continue
            pair = sf.innermost_brace(base + lb + 1,
                                      (fi.open, fi.close - 1))
            if pair is None or pair[0] != base + lb:
                continue
            lam_body = sf.code[pair[0]:pair[1]]
            used = [g for g in ci.guarded
                    if re.search(r"\b" + re.escape(g) + r"\b", lam_body)]
            if not used:
                continue
            # Deferred? look backwards for `Sink(` or a `member =` store.
            before = body[:m.start()].rstrip()
            sink = re.search(r"(\w+)\s*\($", before)
            stored = re.search(r"(?:->|\.)\s*\w+\s*=$",
                               before.rstrip(","))
            deferred = (sink is not None and sink.group(1) in DEFERRED_SINKS)
            if not (deferred or stored):
                continue
            g = used[0]
            how = (f"passed to deferred sink {sink.group(1)}()" if deferred
                   else "stored into a callback slot")
            emit(base + m.start(),
                 f"lambda captures {ci.name}::{g} (guarded by "
                 f"{ci.guarded[g]}) by reference and is {how} — it runs "
                 "after the lock scope ends")
    return findings


# ---------------------------------------------------------------------------
# MML103: seqlock discipline
# ---------------------------------------------------------------------------

def check_mml103(model: Model) -> list[Finding]:
    findings: list[Finding] = []
    for fi in model.bodies():
        if any(part in fi.rel for part in SEQLOCK_EXEMPT):
            continue
        sf = model.files[fi.rel]
        body = sf.code[fi.open + 1:fi.close - 1]
        base = fi.open + 1
        guards = [e for e in fi.lock_events if e.kind == "frame"]

        def in_guard(pos: int) -> bool:
            return any(g.pos < pos < g.end for g in guards)

        def emit(pos: int, msg: str) -> None:
            sf.report(findings, sf.line_of(pos), "MML103", msg)

        for m in STORE_BYTES_RE.finditer(body):
            pos = base + m.start()
            if not in_guard(pos):
                emit(pos, "OptimisticGuard::StoreBytes outside a "
                          "FrameWriteGuard section — optimistic readers can "
                          "validate a torn write (DESIGN.md §14)")
        for m in BYTES_STORE_RE.finditer(body):
            pos = base + m.start()
            if not in_guard(pos):
                emit(pos, f"`{m.group(1)}->bytes.store()` outside a "
                          "FrameWriteGuard section — republishing the byte "
                          "pointer needs the seqlock held odd")
        for m in FRAME_MEMCPY_RE.finditer(body):
            pos = base + m.start()
            if not in_guard(pos):
                emit(pos, f"memcpy into `{m.group(1)}` page bytes outside a "
                          "FrameWriteGuard section — a concurrent optimistic "
                          "reader can validate a torn copy")

        # Validate()-failure path must not consume the torn copy.
        for vm in VALIDATE_FAIL_RE.finditer(body):
            gvar = vm.group(1)
            copied: set[str] = set()
            for rm in re.finditer(
                    r"\b" + re.escape(gvar) + READBYTES_OUT_RE.pattern,
                    body[:vm.start()]):
                copied.add(rm.group(1))
            for am in re.finditer(
                    r"(\w+)\s*=[^;=]*\b" + re.escape(gvar) +
                    r"\s*\.\s*(?:page|version)\s*\(", body[:vm.start()]):
                copied.add(am.group(1))
            if not copied:
                continue
            blk_open = body.find("{", vm.end())
            if blk_open < 0:
                continue
            pair = sf.innermost_brace(base + blk_open + 1,
                                      (fi.open, fi.close - 1))
            if pair is None or pair[0] != base + blk_open:
                continue
            blk = sf.code[pair[0] + 1:pair[1]]
            for var in sorted(copied):
                for um in re.finditer(r"\b" + re.escape(var) + r"\b", blk):
                    tail = blk[um.end():um.end() + 16].lstrip()
                    before = blk[:um.start()].rstrip()
                    if tail.startswith("=") and not tail.startswith("=="):
                        continue  # reassignment before retry is fine
                    if before.endswith("&"):
                        continue  # retrying ReadBytes(&var, ...)
                    pos = pair[0] + 1 + um.start()
                    emit(pos,
                         f"`{var}` was copied through OptimisticGuard "
                         f"`{gvar}` but is used on the Validate()-failed "
                         "path — the copy may be torn; refetch before use")
                    break
    return findings


# ---------------------------------------------------------------------------
# MML104: determinism (lexical)
# ---------------------------------------------------------------------------

def check_mml104(sf: SourceFile) -> list[Finding]:
    rel = sf.rel
    in_scope = rel.startswith(("src/", "include/mm/", "bench/"))
    if not in_scope:
        return []
    if "/sim/" in rel or rel.startswith(("src/sim/", "include/mm/sim/")):
        return []
    if rel in MML104_BENCH_ALLOWLIST:
        return []
    findings: list[Finding] = []

    def emit(line: int, what: str) -> None:
        sf.report(findings, line, "MML104",
                  f"{what} breaks deterministic replay — route time through "
                  "sim::VirtualClock / Env::NowS and randomness through a "
                  "seeded engine (DESIGN.md §4); benches measuring real time "
                  "belong on the MML104 allowlist")

    for idx, line in enumerate(sf.code_lines):
        m = WALL_CLOCK_RE.search(line)
        if m:
            emit(idx + 1, f"wall clock `{m.group(0)}`")
        m = RAND_RE.search(line)
        if m:
            emit(idx + 1, f"`{m.group(1)}()` (global, unseeded PRNG)")
        m = TIME_RE.search(line)
        if m:
            emit(idx + 1, "`time()` wall-clock call")
        m = RANDOM_DEVICE_RE.search(line)
        if m:
            emit(idx + 1, "`std::random_device` (non-deterministic entropy)")
    return findings


# ---------------------------------------------------------------------------
# Per-line and per-file rules: MML001, MML004–MML011
# ---------------------------------------------------------------------------

def _runtime(rel: str) -> bool:
    return rel.startswith(("include/", "src/"))


def check_mml001(sf: SourceFile) -> list[Finding]:
    if not _runtime(sf.rel) or "/util/" in sf.rel:
        return []
    findings: list[Finding] = []
    for idx, line in enumerate(sf.code_lines):
        m = RAW_SYNC_RE.search(line)
        if m:
            sf.report(findings, idx + 1, "MML001",
                      f"raw `{m.group(0).strip()}` outside util/ — use "
                      "mm::Mutex / mm::MutexLock / mm::CondVar "
                      "(mm/util/mutex.h)")
    return findings


def check_mml004(model: Model) -> list[Finding]:
    """MM_CHECK in a hot-path body. A modeled name matches a HOT_PATHS entry
    when it is a suffix of it, so definitions outside their namespace or
    class scope still resolve."""
    findings: list[Finding] = []
    for fi in model.bodies():
        base = os.path.basename(fi.rel)
        hot = next((qn for part, qn in HOT_PATHS if part in base and (
            qn == fi.qualname or qn.endswith("::" + fi.qualname))), None)
        if hot is None:
            continue
        sf = model.files[fi.rel]
        cm = MM_CHECK_RE.search(sf.code, fi.open, fi.close)
        if cm:
            short = "::".join(hot.split("::")[-2:])
            sf.report(findings, sf.line_of(cm.start()), "MML004",
                      f"MM_CHECK inside hot path {short} (DESIGN.md §7: the "
                      "fast path must stay check-free; validate at the "
                      "scalar entry points instead)")
    return findings


def check_mml005(sf: SourceFile) -> list[Finding]:
    findings: list[Finding] = []
    for idx, line in enumerate(sf.code_lines):
        if not VOID_DISCARD_RE.search(line):
            continue
        # The reason comment lives in the original text (code is stripped).
        above = sf.lines[idx - 1] if idx > 0 else ""
        if "//" in sf.lines[idx] or above.lstrip().startswith("//"):
            continue
        sf.report(findings, idx + 1, "MML005",
                  "(void)-discard without a reason comment — say why the "
                  "result cannot matter, on this line or the line above")
    return findings


def check_mml006(sf: SourceFile) -> list[Finding]:
    # Runtime code only: tests/benches may register ad-hoc fixture names.
    # Scans the original text because string literals are blanked in code.
    if not _runtime(sf.rel):
        return []
    findings: list[Finding] = []
    for m in METRIC_GET_RE.finditer(sf.text):
        name = m.group(1)
        line = sf.line_of(m.start(1))  # the literal itself (multi-line calls)
        if not METRIC_NAME_RE.fullmatch(name):
            sf.report(findings, line, "MML006",
                      f'metric name "{name}" must match '
                      "`mm.<subsystem>.<name>` "
                      "(lowercase letters and underscores)")
        elif not name.endswith(METRIC_UNIT_SUFFIXES):
            sf.report(findings, line, "MML006",
                      f'metric name "{name}" lacks a unit suffix '
                      f"({', '.join(METRIC_UNIT_SUFFIXES)})")
    return findings


def check_mml007(model: Model) -> list[Finding]:
    # Scans the original text so path expressions like `path + ".tmp"` stay
    # visible.
    findings: list[Finding] = []
    for sf in model.files.values():
        if not sf.rel.startswith(CKPT_DIRS):
            continue
        for m in CKPT_STREAM_RE.finditer(sf.text):
            stmt = m.group(0)
            if "ios::app" in stmt:
                continue  # the redo journal IS the write-ahead log
            if re.search(r"tmp|temp", stmt, re.IGNORECASE):
                continue  # the temp half of a temp+rename publish
            fi = model.enclosing_function(sf.rel, m.start())
            if fi is not None and re.search(r"\brename\s*\(",
                                            sf.code[fi.open:fi.close]):
                continue  # the same function renames the file into place
            sf.report(findings, sf.line_of(m.start()), "MML007",
                      "direct stream open of a final path in ckpt code — "
                      "publish via write-to-temp + std::filesystem::rename "
                      "(or open the journal in append mode)")
    return findings


def check_mml008(sf: SourceFile) -> list[Finding]:
    if not _runtime(sf.rel) or sf.rel.startswith(COMM_DIRS):
        return []
    findings: list[Finding] = []
    for idx, line in enumerate(sf.code_lines):
        m = UNBOUNDED_RECV_RE.search(line)
        if m:
            sf.report(findings, idx + 1, "MML008",
                      f"unbounded `{m.group(1)}` outside comm/ aborts on "
                      "peer death — use the deadline variant "
                      f"`{m.group(1)}Or` and route kPeerDead into recovery")
    return findings


def check_mml009(sf: SourceFile) -> list[Finding]:
    if any(part in sf.rel for part in SEQLOCK_EXEMPT):
        return []
    findings: list[Finding] = []
    for idx, line in enumerate(sf.code_lines):
        m = FRAME_VERSION_RE.search(line)
        if m:
            sf.report(findings, idx + 1, "MML009",
                      f"raw `{m.group(1)}` version access outside the "
                      "seqlock implementation — use OptimisticGuard::"
                      "Version/SetVersion (reads need the acquire + "
                      "validate protocol, writes a FrameWriteGuard)")
    return findings


def check_mml011(sf: SourceFile) -> list[Finding]:
    if sf.rel.startswith(TREE_NODE_EXEMPT):
        return []
    findings: list[Finding] = []
    for idx, line in enumerate(sf.code_lines):
        m = TREE_NODE_UNION_RE.search(line)
        what = "byte" if m else "field"
        m = m or TREE_NODE_IDENT_RE.search(line)
        if m:
            sf.report(findings, idx + 1, "MML011",
                      f"raw node {what} access `{m.group(1)}.{m.group(2)}` "
                      "outside index/ — go through mm::BTree (or NodeRef "
                      "over a guard-validated snapshot)")
    return findings


def expand_token(token: str) -> list[str]:
    """Expands `{a,b}_x` brace groups combinatorially: `{a,b}_{c,d}` ->
    a_c, a_d, b_c, b_d. Tokens without braces pass through unchanged."""
    m = BRACE_RE.search(token)
    if not m:
        return [token]
    out: list[str] = []
    for alt in m.group(1).split(","):
        out.extend(expand_token(token[:m.start()] + alt.strip() +
                                token[m.end():]))
    return out


def parse_metric_catalog(design_text: str) -> dict[str, int] | None:
    """Full metric names -> 1-based DESIGN.md line, from the §11 catalog
    table. None when the `### Metric catalog` section is missing."""
    lines = design_text.split("\n")
    start = next((i for i, line in enumerate(lines)
                  if line.strip() == CATALOG_HEADER), None)
    if start is None:
        return None
    names: dict[str, int] = {}
    for idx in range(start + 1, len(lines)):
        line = lines[idx]
        if line.startswith("#"):
            break  # next section
        stripped = line.strip()
        if not stripped.startswith("|"):
            continue
        cells = [c.strip() for c in stripped.strip("|").split("|")]
        fam = CATALOG_FAMILY_RE.match(cells[0]) if len(cells) >= 2 else None
        if fam is None:
            continue  # header / divider rows
        for tok in CATALOG_TOKEN_RE.finditer(cells[1]):
            for name in expand_token(tok.group(1)):
                names.setdefault(fam.group(1) + "." + name, idx + 1)
    return names


def check_mml010(model: Model, design_text: str | None) -> list[Finding]:
    """Code metric literals in include/ + src/ vs the DESIGN.md §11 catalog,
    both directions. Without a DESIGN.md there is nothing to check."""
    if design_text is None:
        return []
    catalog = parse_metric_catalog(design_text)
    if catalog is None:
        return [Finding("DESIGN.md", 1, "MML010",
                        f"missing `{CATALOG_HEADER}` section in §11 — the "
                        "metric catalog is the contract MML010 checks "
                        "registrations against")]
    used: dict[str, tuple[str, int]] = {}
    for sf in model.files.values():
        if not _runtime(sf.rel):
            continue
        for m in METRIC_GET_RE.finditer(sf.text):
            name = m.group(1)
            if not name.startswith("mm."):
                continue  # MML006's problem, not drift
            line = sf.line_of(m.start(1))
            if not sf.suppressed(line, "MML010"):
                used.setdefault(name, (sf.rel, line))
    findings = [Finding(*used[name], "MML010",
                        f'metric "{name}" is not in the DESIGN.md §11 '
                        "metric catalog — add it to the family table")
                for name in sorted(used) if name not in catalog]
    findings += [Finding("DESIGN.md", catalog[name], "MML010",
                         f'catalog metric "{name}" is not registered '
                         "anywhere in include/ or src/ — remove the entry "
                         "or wire the metric up")
                 for name in sorted(catalog) if name not in used]
    return findings


# ---------------------------------------------------------------------------
# MML002: per-variable PagePool buffer dataflow
# ---------------------------------------------------------------------------

def check_mml002(model: Model) -> list[Finding]:
    findings: list[Finding] = []
    for fi in model.bodies():
        sf = model.files[fi.rel]
        body = sf.code[fi.open + 1:fi.close - 1]
        base = fi.open + 1
        if "Acquire" not in body:
            continue
        for m in ACQUIRE_ASSIGN_RE.finditer(body):
            var = m.group(1)
            rest = body[m.end():]
            if _buffer_handed_off(rest, var):
                continue
            # `out.data = pool_.Acquire...` — m.group(1) only captures the
            # last identifier; detect the member-store shape and treat the
            # enclosing object as the handoff carrier.
            stmt_start = body.rfind(";", 0, m.start()) + 1
            stmt = body[stmt_start:m.end()]
            if MEMBER_ACQUIRE_RE.search(stmt):
                continue
            sf.report(findings, sf.line_of(base + m.start(1)), "MML002",
                      f"PagePool buffer `{var}` is neither PoolReturn-"
                      "guarded, std::move'd, Release'd, returned, nor handed "
                      "to a callee after Acquire — it leaks out of the "
                      "recycling loop")
    return findings


def _buffer_handed_off(rest: str, var: str) -> bool:
    v = re.escape(var)
    if re.search(r"\bPoolReturn\s+\w+\s*[({][^;]*\b" + v + r"\b", rest):
        return True
    if re.search(r"std::move\s*\(\s*" + v + r"\s*\)", rest):
        return True
    if re.search(r"\bRelease\s*\(\s*" + v + r"\b", rest):
        return True
    if re.search(r"\breturn\s+" + v + r"\b", rest):
        return True
    if re.search(r"(?:->|\.)\s*\w+\s*=\s*" + v + r"\s*;", rest):
        return True  # stored into an outgoing object
    # One-level handoff: var passed as an argument to some call.
    for cm in re.finditer(r"\b(\w+)\s*\(([^()]*\b" + v + r"\b[^()]*)\)",
                          rest):
        callee_name = cm.group(1)
        if callee_name in KEYWORDS or callee_name == "PoolReturn":
            continue
        return True
    return False


# ---------------------------------------------------------------------------
# MML003: class-level Pin/Unpin tally
# ---------------------------------------------------------------------------

def check_mml003(model: Model) -> list[Finding]:
    findings: list[Finding] = []
    tallies: dict[str, dict[str, list[tuple[str, int]]]] = {}
    for fi in model.bodies():
        cls = fi.cls or f"<free:{fi.rel}>"
        if cls.endswith("PCache"):
            continue  # the definitions themselves
        for call in fi.calls:
            if call.name in ("Pin", "Unpin") and call.recv_class != fi.cls:
                tallies.setdefault(cls, {}).setdefault(
                    call.name, []).append((fi.rel, call.line))
    for cls, by_name in sorted(tallies.items()):
        pins = by_name.get("Pin", [])
        unpins = by_name.get("Unpin", [])
        if len(pins) == len(unpins):
            continue
        rel, line = (pins or unpins)[0]
        model.files[rel].report(
            findings, line, "MML003",
            f"Pin/Unpin imbalance in {cls}: {len(pins)} Pin vs "
            f"{len(unpins)} Unpin call sites across the class — a leaked "
            "pin makes the frame unevictable")
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def read_tree(root: str) -> list[tuple[str, str]]:
    """[(rel_path, text)] for every source file under SOURCE_DIRS."""
    file_texts: list[tuple[str, str]] = []
    for d in SOURCE_DIRS:
        for dirpath, dirs, names in os.walk(os.path.join(root, d)):
            dirs.sort()
            for name in sorted(names):
                if not name.endswith(SOURCE_EXTS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                try:
                    with open(path, "r", encoding="utf-8",
                              errors="replace") as f:
                        file_texts.append((rel, f.read()))
                except OSError as e:
                    print(f"mm_verify: warning: unreadable {rel}: {e}",
                          file=sys.stderr)
    return file_texts


def build_model(file_texts: list[tuple[str, str]]) -> Model:
    """file_texts: [(rel_path, text)]. Declarations first (so cross-file
    receiver types resolve), then function bodies; tests/ is not modeled."""
    model = Model()
    for rel, text in file_texts:
        sf = SourceFile(rel, text)
        model.files[sf.rel] = sf
    modeled = [(sf, collect_scopes(sf)) for sf in model.files.values()
               if not sf.rel.startswith(LEXICAL_ONLY_DIRS)]
    for sf, scopes in modeled:
        parse_declarations(model, sf, scopes)
    for sf, scopes in modeled:
        parse_functions_textual(model, sf, scopes)
    return model


FILE_RULES = (check_mml001, check_mml005, check_mml006, check_mml008,
              check_mml009, check_mml011, check_mml104)
MODEL_RULES = (check_mml002, check_mml003, check_mml004, check_mml007,
               check_mml102, check_mml103)


def run_rules(model: Model, dot_path: str | None = None,
              verbose: bool = False,
              design_text: str | None = None) -> list[Finding]:
    """Every rule over the model; MML010 runs when design_text (DESIGN.md)
    is given."""
    findings: list[Finding] = []
    for sf in model.files.values():
        findings.extend(sf.bad_suppressions)
        for check in FILE_RULES:
            findings.extend(check(sf))
    for check in MODEL_RULES:
        findings.extend(check(model))
    findings.extend(check_mml101(model, compute_summaries(model), dot_path,
                                 verbose))
    findings.extend(check_mml010(model, design_text))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def analyze(root: str, dot_path: str | None = None,
            verbose: bool = False) -> tuple[Model, list[Finding]]:
    """Scans the tree under root once and runs every rule."""
    model = build_model(read_tree(root))
    try:
        with open(os.path.join(root, "DESIGN.md"), "r", encoding="utf-8",
                  errors="replace") as f:
            design_text: str | None = f.read()
    except OSError:
        design_text = None
    return model, run_rules(model, dot_path, verbose, design_text)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--root", default=default_root)
    parser.add_argument("--dot", default=None,
                        help="lock-hierarchy DOT output path "
                             "(default: <root>/build/lock_hierarchy.dot; "
                             "'-' disables)")
    parser.add_argument("--verbose", action="store_true",
                        help="print every observed lock edge")
    parser.add_argument("files", nargs="*",
                        help="report findings only for these paths "
                             "(the whole tree is always analyzed)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    dot_path = args.dot or os.path.join(root, "build", "lock_hierarchy.dot")
    model, findings = analyze(root, None if dot_path == "-" else dot_path,
                              args.verbose)
    if args.files:
        wanted = {os.path.relpath(os.path.abspath(f), root).replace(
            os.sep, "/") for f in args.files}
        findings = [f for f in findings if f.path in wanted]

    for f in findings:
        print(f)
    tag = (f"{len(model.bodies())} functions, "
           f"{len(model.all_mutexes())} mutexes")
    if findings:
        print(f"mm_verify: {len(findings)} finding(s) ({tag})",
              file=sys.stderr)
    else:
        print(f"mm_verify: clean ({tag})", file=sys.stderr)
    return min(len(findings), 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
