#!/usr/bin/env python3
"""mm_verify: whole-program concurrency analysis for the MegaMmap runtime.

Where ci/mm_lint.py is a line-oriented regex lint, mm_verify builds a
structural model of the whole tree — classes, mutex fields, guarded fields,
function bodies, lock-acquisition scopes, and a call graph — and checks
cross-function properties no per-line tool can see:

  MML101  Lock-order / deadlock. Every nested `mm::MutexLock` acquisition
          pair (resolved to `Class::field` identity, following callees to a
          bounded depth) becomes an edge in a global lock graph. Any cycle
          is reported as a potential deadlock with both witness paths, and
          every observed edge must be declared with `MM_ACQUIRED_BEFORE` /
          `MM_ACQUIRED_AFTER` on the mutex field so the hierarchy is an
          explicit contract (DESIGN.md §10). Utility leaf locks (never
          acquire anything nested) may instead carry a
          `mm-verify: leaf-lock(<reason>)` comment: edges INTO a leaf are
          exempt from the declaration requirement but still cycle-checked.
          The observed+declared graph is emitted as Graphviz DOT
          (build/lock_hierarchy.dot).
  MML102  Guarded-field escape. A pointer/reference to an `MM_GUARDED_BY`
          field that leaves its lock scope: returned (`return &field;` or
          by-reference return), stored into a longer-lived object
          (`obj->p = &field;`), or captured by reference in a lambda handed
          to a deferred-execution sink (Submit/Push/Post/...).
  MML103  Seqlock discipline (AST-grade MML009). Frame-byte writes
          (`OptimisticGuard::StoreBytes`, `frame->bytes.store`,
          `memcpy(frame->data...)`) must sit lexically inside a
          `FrameWriteGuard` section, and data copied out through an
          `OptimisticGuard` must not be dereferenced on the
          `Validate()`-failed path before the retry. The seqlock
          implementation itself (core/pcache, core/optimistic_guard) is
          exempt.
  MML104  Determinism. Wall clocks (`std::chrono::{system,steady,
          high_resolution}_clock`), `time()`, `rand()`/`srand()` and
          `std::random_device` are banned in src/ and include/mm/ outside
          sim/ — bit-identical fault replay depends on every timestamp and
          random draw flowing through the virtual clock (DESIGN.md §4).
          Benchmarks that measure real elapsed time are allowlisted.
  MML002  PagePool Acquire/AcquireZeroed whose result variable is
          neither guarded by a PoolReturn, std::move'd, Release'd,
          returned, stored into an outgoing object, nor handed to a callee
          that takes the buffer by value (per-variable dataflow).
          Un-returned buffers drop out of the recycling loop.
  MML003  PCache Pin/Unpin balance tallied per enclosing *class* across
          the whole model, so a Pin in a header and its Unpin in the
          matching .cc still balance. A leaked pin makes the frame
          unevictable.
          These two rules live only here; mm_lint has no copy.

Frontends: the model can be built by two interchangeable frontends.
  - `libclang` parses the TUs listed in the clang-tidy lane's
    compile_commands.json via `clang.cindex` (precise receiver types and
    callee resolution). Used in the mm-verify CI lane.
  - `textual` is a dependency-free structural parser (brace trees,
    namespace/class scopes, field tables, receiver-type resolution) that
    always works. It is the fallback whenever `clang.cindex` or the
    compilation database is unavailable (a warning is printed), so every
    rule stays active on any machine.
Lock-hierarchy *annotations* are always read textually: MM_ACQUIRED_BEFORE
expands to nothing at compile time (see thread_annotations.h), so the
source text is the contract of record.

Suppression: `mm-verify: allow(MMLnnn <reason>)` — or the mm_lint spelling
`mm-lint: allow(...)` — in a comment on the offending line or the line
above. Suppressions without a reason are findings.

Usage: python3 ci/mm_verify.py [--root DIR] [-p BUILD_DIR]
           [--frontend auto|textual|libclang] [--dot PATH|-]
           [--call-depth N] [files...]
Exit status is the number of findings (0 == clean).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field as dc_field

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from mm_lint import Finding, strip_comments_and_strings  # noqa: E402

SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp")
MODEL_DIRS = ("include", "src")          # structural model (MML101/102/002/003)
LEXICAL_DIRS = ("include", "src", "bench", "apps", "examples")  # MML104

ALLOW_RE = re.compile(r"mm-(?:lint|verify):\s*allow\(\s*(MML\d{3})\b([^)]*)\)")
LEAF_RE = re.compile(r"mm-verify:\s*leaf-lock\(([^)]*)\)")

# MML104 ---------------------------------------------------------------------
WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)\b")
RAND_RE = re.compile(r"(?<![\w:])(?:std::)?(s?rand)\s*\(")
TIME_RE = re.compile(r"(?<![\w:])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0|&|\))")
RANDOM_DEVICE_RE = re.compile(r"std::random_device\b")
# Benchmarks that intentionally measure real elapsed wall time.
MML104_BENCH_ALLOWLIST = (
    "bench/hotpath.cc",
    "bench/readpath.cc",
    "bench/micro_access_overhead.cc",
    "bench/micro_collectives.cc",
    "bench/ycsb.cc",
)

# MML103 ---------------------------------------------------------------------
SEQLOCK_EXEMPT = ("core/pcache", "core/optimistic_guard")
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
# Model dataclasses
# ---------------------------------------------------------------------------

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

    def suppressed(self, line: int, rule: str) -> bool:
        return rule in self.suppressions.get(line, set())

    def line_of(self, pos: int) -> int:
        return self.code.count("\n", 0, pos) + 1

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
        self.files: dict[str, SourceFile] = {}
        self.classes: dict[str, ClassInfo] = {}      # qual -> info
        self.by_simple: dict[str, list[str]] = {}    # simple -> [qual...]
        self.functions: dict[str, FunctionInfo] = {} # qualname -> info
        self.frontend = "textual"

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
METHOD_DECL_RE = re.compile(
    r"^\s*(?:virtual\s+|static\s+|inline\s+|constexpr\s+|explicit\s+)*"
    r"([\w:]+(?:\s*<[^;{}]*>)?\s*[&\*]?)\s+(\w+)\s*\($")


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


def parse_declarations(model: Model, sf: SourceFile) -> None:
    scopes = collect_scopes(sf)
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
        _parse_class_body(model, sf, ci, scopes)


def _parse_class_body(model: Model, sf: SourceFile, ci: ClassInfo,
                      scopes: list[tuple[str, str, int, int]]) -> None:
    """Walk the class body at its own depth, splitting statements at `;`
    and skipping nested braces (methods, nested classes, initializers)."""
    code = sf.code
    i = ci.open + 1
    stmt_start = i
    nested = [(o, c) for k, n, o, c in scopes
              if k == "class" and ci.open < o and c < ci.close]
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
    _ = nested


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
    line = sf.line_of(stmt_pos) if line <= 0 else line
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
# Pass 2 (textual frontend): function bodies
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
    if h.endswith(":") or not h.endswith(")"):
        # Constructor initializer lists (`: field_(x)`) end with ')' too but
        # the ctor header before ':' still parses; a bare trailing ':' means
        # we grabbed only part of the initializer list — reject.
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
    m = re.search(r"((?:[\w~]+\s*::\s*)*(?:operator\s*[^\s(]+|[\w~]+))\s*\(",
                  h)
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


def parse_functions_textual(model: Model, sf: SourceFile) -> None:
    scopes = collect_scopes(sf)
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
        # Header-inline definitions may be seen once; .cc definitions of the
        # same method override a header stub (rare), last writer wins.
        model.functions[qualname] = fi


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
        if t:  # a Mutex& parameter typed as Mutex resolves above
            return f"?:{expr}", False
        return f"?:{expr}", False
    m = re.fullmatch(r"([\w.\->()\[\]]+?)(?:\.|->)(\w+)", e)
    if m:
        owner = _expr_type(model, fi, ci, m.group(1))
        oc = model.class_by_name(owner) if owner else None
        if oc is not None and m.group(2) in oc.mutexes:
            return oc.mutexes[m.group(2)].lock_id, True
    return f"?:{expr}", False


# ---------------------------------------------------------------------------
# Optional libclang frontend (CI): precise bodies from compile_commands.json
# ---------------------------------------------------------------------------

def parse_functions_libclang(model: Model, root: str, build_dir: str,
                             warn) -> bool:
    """Re-parses function bodies through clang.cindex, overriding the
    textual FunctionInfo for every definition the AST can see. Returns
    False (caller keeps the textual bodies) if clang.cindex or the
    compilation database is unavailable; per-TU failures fall back to the
    textual parse of those files."""
    try:
        from clang import cindex  # type: ignore
    except Exception as e:  # pragma: no cover - environment dependent
        warn(f"clang.cindex unavailable ({e}); using the textual frontend")
        return False
    try:
        db = cindex.CompilationDatabase.fromDirectory(build_dir)
    except Exception as e:  # pragma: no cover
        warn(f"no compile_commands.json in {build_dir} ({e}); "
             "using the textual frontend")
        return False
    index = cindex.Index.create()
    parsed_rels: set[str] = set()
    ok_tus = 0
    for cmd in db.getAllCompileCommands():
        src = os.path.join(cmd.directory, cmd.filename)
        src = os.path.normpath(src)
        if not src.startswith(os.path.normpath(root) + os.sep):
            continue
        args = [a for a in list(cmd.arguments)[1:]
                if a not in ("-c", "-o", cmd.filename, src)]
        # Drop the "-o <file>" argument pair remnants.
        clean, skip = [], False
        for a in args:
            if skip:
                skip = False
                continue
            if a == "-o":
                skip = True
                continue
            clean.append(a)
        try:
            tu = index.parse(src, args=clean)
            if any(d.severity >= cindex.Diagnostic.Error
                   for d in tu.diagnostics):
                raise RuntimeError(next(
                    d.spelling for d in tu.diagnostics
                    if d.severity >= cindex.Diagnostic.Error))
            _walk_tu(model, root, tu, parsed_rels)
            ok_tus += 1
        except Exception as e:  # pragma: no cover
            warn(f"libclang failed on {cmd.filename} ({e}); "
                 "textual bodies kept for that TU")
    if ok_tus == 0:
        warn("libclang parsed no TUs; using the textual frontend")
        return False
    model.frontend = "libclang"
    return True


def _cursor_qualname(cur) -> tuple[str, str]:  # pragma: no cover - CI only
    parts, cls_parts = [], []
    p = cur.semantic_parent
    from clang import cindex  # type: ignore
    while p is not None and p.kind != cindex.CursorKind.TRANSLATION_UNIT:
        if p.spelling:
            parts.append(p.spelling)
            if p.kind in (cindex.CursorKind.CLASS_DECL,
                          cindex.CursorKind.STRUCT_DECL,
                          cindex.CursorKind.CLASS_TEMPLATE):
                cls_parts = list(parts)
        p = p.semantic_parent
    parts.reverse()
    cls_parts.reverse()
    qual = "::".join(parts + [cur.spelling])
    cls = "::".join(parts) if cls_parts else ""
    return qual, cls


def _walk_tu(model: Model, root: str, tu,
             parsed_rels: set[str]) -> None:  # pragma: no cover - CI only
    from clang import cindex  # type: ignore
    fn_kinds = (cindex.CursorKind.CXX_METHOD, cindex.CursorKind.FUNCTION_DECL,
                cindex.CursorKind.CONSTRUCTOR, cindex.CursorKind.DESTRUCTOR)

    def visit(cur):
        for child in cur.get_children():
            loc_file = child.location.file
            if loc_file is None:
                continue
            path = os.path.normpath(str(loc_file))
            if not path.startswith(os.path.normpath(root) + os.sep):
                continue
            if child.kind in fn_kinds and child.is_definition():
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                sf = model.files.get(rel)
                if sf is not None:
                    _lift_function(model, sf, child)
                continue
            visit(child)

    visit(tu.cursor)


def _lift_function(model: Model, sf: SourceFile,
                   cur) -> None:  # pragma: no cover - CI only
    from clang import cindex  # type: ignore
    qualname, cls = _cursor_qualname(cur)
    ext = cur.extent
    prev = model.functions.get(qualname)
    fi = FunctionInfo(
        qualname=qualname, cls=cls, rel=sf.rel,
        header=prev.header if prev else cur.displayname,
        ret=cur.result_type.spelling if cur.result_type else "",
        open=ext.start.offset, close=ext.end.offset)
    ci = model.classes.get(cls)

    def scope_end(c) -> int:
        p = c.semantic_parent
        return ext.end.offset if p is None else ext.end.offset

    def visit(c, compound_end: int):
        for ch in c.get_children():
            nxt_end = compound_end
            if ch.kind == cindex.CursorKind.COMPOUND_STMT:
                nxt_end = ch.extent.end.offset
            if ch.kind == cindex.CursorKind.VAR_DECL:
                ts = ch.type.spelling
                kind = ("mutex" if "MutexLock" in ts else
                        "frame" if "FrameWriteGuard" in ts else "")
                if kind:
                    pos = ch.extent.start.offset
                    expr = sf.code[pos:ch.extent.end.offset]
                    expr = expr[expr.find("(") + 1:expr.rfind(")")] \
                        if "(" in expr else ""
                    lock_id, resolved = _lock_id_from_decl(model, fi, ci,
                                                           ch, expr)
                    end = compound_end
                    un = re.search(
                        r"\b" + re.escape(ch.spelling) +
                        r"\s*\.\s*Unlock\s*\(", sf.code[pos:end])
                    if un:
                        end = pos + un.start()
                    fi.lock_events.append(LockEvent(
                        kind=kind, var=ch.spelling, expr=expr.strip(),
                        lock_id=lock_id, resolved=resolved, pos=pos,
                        end=end, line=sf.line_of(pos)))
            if ch.kind in (cindex.CursorKind.CALL_EXPR,):
                ref = ch.referenced
                if ref is not None and ref.spelling:
                    cq, ccls = _cursor_qualname(ref)
                    pos = ch.extent.start.offset
                    fi.calls.append(CallEvent(
                        name=ref.spelling, recv_class=ccls or "?",
                        pos=pos, line=sf.line_of(pos)))
            visit(ch, nxt_end)

    visit(cur, ext.end.offset)
    _ = scope_end
    model.functions[qualname] = fi


def _lock_id_from_decl(model: Model, fi: FunctionInfo, ci, cur,
                       expr: str):  # pragma: no cover - CI only
    from clang import cindex  # type: ignore
    stack = list(cur.get_children())
    while stack:
        c = stack.pop(0)
        if c.kind in (cindex.CursorKind.MEMBER_REF_EXPR,
                      cindex.CursorKind.DECL_REF_EXPR):
            ref = c.referenced
            if ref is not None and "Mutex" in ref.type.spelling:
                owner = ref.semantic_parent
                if owner is not None and owner.kind in (
                        cindex.CursorKind.CLASS_DECL,
                        cindex.CursorKind.STRUCT_DECL):
                    oq, _ = _cursor_qualname(ref)
                    return oq, True
                return f"local:{fi.qualname}::{ref.spelling}", True
        stack.extend(c.get_children())
    return _resolve_lock_expr(model, fi, ci, expr)


# ---------------------------------------------------------------------------
# Lock summaries: which locks does calling f acquire (transitively)?
# ---------------------------------------------------------------------------

def resolve_callee(model: Model, fi: FunctionInfo,
                   call: CallEvent) -> FunctionInfo | None:
    if call.recv_class and call.recv_class != "?":
        ci = model.class_by_name(call.recv_class)
        owner = ci.qual if ci is not None else call.recv_class
        method = model.functions.get(f"{owner}::{call.name}")
        if method is not None:
            return method
    if not fi.cls or call.recv_class != fi.cls:
        return None
    # An implicit-this call that names no method is a free function in an
    # enclosing namespace (e.g. a file-local helper taking the object as a
    # parameter).
    ns = fi.cls.rpartition("::")[0]
    while ns:
        free = model.functions.get(f"{ns}::{call.name}")
        if free is not None and not free.cls:
            return free
        ns = ns.rpartition("::")[0]
    return None


def compute_summaries(model: Model, depth: int
                      ) -> dict[str, dict[str, tuple[str, int, str]]]:
    """qualname -> {lock_id: (rel, line, via)} where `via` describes the
    call chain that reaches the acquisition."""
    summaries: dict[str, dict[str, tuple[str, int, str]]] = {}
    for qn, fi in model.functions.items():
        direct: dict[str, tuple[str, int, str]] = {}
        for ev in fi.lock_events:
            if ev.kind == "mutex" and ev.resolved:
                direct.setdefault(ev.lock_id, (fi.rel, ev.line, ""))
        summaries[qn] = direct
    for _ in range(max(1, depth)):
        changed = False
        for qn, fi in model.functions.items():
            mine = summaries[qn]
            for call in fi.calls:
                callee = resolve_callee(model, fi, call)
                if callee is None or callee.qualname == qn:
                    continue
                for lock_id, (rel, line, via) in \
                        summaries[callee.qualname].items():
                    if lock_id not in mine:
                        chain = callee.qualname.split("::")[-1]
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
    for qn, fi in model.functions.items():
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
                if callee is None or callee.qualname == qn:
                    continue
                for lock_id, (rel, line, via) in \
                        summaries[callee.qualname].items():
                    if lock_id == outer.lock_id:
                        # Re-acquisition through a callee is reported as a
                        # self-edge (a real deadlock with non-reentrant
                        # mm::Mutex).
                        pass
                    chain = callee.qualname.split("::")[-1]
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
        sf = model.files.get(e.rel)
        if e.src == e.dst:
            msg = (f"{e.src} re-acquired while already held"
                   + (f" (via {e.via})" if e.via else "")
                   + " — mm::Mutex is non-reentrant; this self-deadlocks")
            if sf is None or not sf.suppressed(e.line, "MML101"):
                findings.append(Finding(e.rel, e.line, "MML101", msg))
            continue
        if e.dst.startswith("local:") or e.src.startswith("local:"):
            continue  # function-local mutexes have no global ordering
        if (e.src, e.dst) in declared_pairs:
            continue
        if e.dst in leaf_ids:
            continue  # leaf locks never nest further; declaration waived
        via = f" (via {e.via})" if e.via else ""
        if sf is None or not sf.suppressed(e.line, "MML101"):
            findings.append(Finding(
                e.rel, e.line, "MML101",
                f"nested acquisition {e.src} -> {e.dst}{via} is not "
                f"declared: add MM_ACQUIRED_BEFORE on {e.src} (or "
                f"MM_ACQUIRED_AFTER on {e.dst}) — the lock hierarchy is an "
                "explicit contract (DESIGN.md §10)"))

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
    for fi in model.functions.values():
        ci = model.classes.get(fi.cls)
        if ci is None or not ci.guarded:
            continue
        sf = model.files.get(fi.rel)
        if sf is None:
            continue
        body = sf.code[fi.open + 1:fi.close - 1]
        base = fi.open + 1
        names = "|".join(re.escape(g) for g in ci.guarded)

        def emit(pos: int, msg: str) -> None:
            line = sf.line_of(pos)
            if not sf.suppressed(line, "MML102"):
                findings.append(Finding(sf.rel, line, "MML102", msg))

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
    for fi in model.functions.values():
        if any(part in fi.rel for part in SEQLOCK_EXEMPT):
            continue
        sf = model.files.get(fi.rel)
        if sf is None:
            continue
        body = sf.code[fi.open + 1:fi.close - 1]
        base = fi.open + 1
        guards = [e for e in fi.lock_events if e.kind == "frame"]

        def in_guard(pos: int) -> bool:
            return any(g.pos < pos < g.end for g in guards)

        def emit(pos: int, msg: str) -> None:
            line = sf.line_of(pos)
            if not sf.suppressed(line, "MML103"):
                findings.append(Finding(sf.rel, line, "MML103", msg))

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
        if not sf.suppressed(line, "MML104"):
            findings.append(Finding(
                rel, line, "MML104",
                f"{what} breaks deterministic replay — route time through "
                "sim::VirtualClock / Env::NowS and randomness through a "
                "seeded engine (DESIGN.md §4); benches measuring real time "
                "belong on the MML104 allowlist"))

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
# MML002: per-variable PagePool buffer dataflow
# ---------------------------------------------------------------------------

def check_mml002_ast(model: Model) -> list[Finding]:
    findings: list[Finding] = []
    for fi in model.functions.values():
        sf = model.files.get(fi.rel)
        if sf is None:
            continue
        body = sf.code[fi.open + 1:fi.close - 1]
        base = fi.open + 1
        for m in ACQUIRE_ASSIGN_RE.finditer(body):
            var = m.group(1)
            rest = body[m.end():]
            if _buffer_handed_off(model, fi, rest, var):
                continue
            # `out.data = pool_.Acquire...` — m.group(1) only captures the
            # last identifier; detect the member-store shape and treat the
            # enclosing object as the handoff carrier.
            stmt_start = body.rfind(";", 0, m.start()) + 1
            stmt = body[stmt_start:m.end()]
            if MEMBER_ACQUIRE_RE.search(stmt):
                continue
            pos = base + m.start(1)
            line = sf.line_of(pos)
            if not sf.suppressed(line, "MML002"):
                findings.append(Finding(
                    sf.rel, line, "MML002",
                    f"PagePool buffer `{var}` is neither PoolReturn-guarded,"
                    " std::move'd, Release'd, returned, nor handed to a "
                    "callee after Acquire — it leaks out of the recycling "
                    "loop"))
    return findings


def _buffer_handed_off(model: Model, fi: FunctionInfo, rest: str,
                       var: str) -> bool:
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

def check_mml003_ast(model: Model) -> list[Finding]:
    findings: list[Finding] = []
    tallies: dict[str, dict[str, list[tuple[str, int]]]] = {}
    for fi in model.functions.values():
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
        sf = model.files.get(rel)
        if sf is not None and sf.suppressed(line, "MML003"):
            continue
        findings.append(Finding(
            rel, line, "MML003",
            f"Pin/Unpin imbalance in {cls}: {len(pins)} Pin vs "
            f"{len(unpins)} Unpin call sites across the class — a leaked "
            "pin makes the frame unevictable"))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_tree(root: str) -> list[str]:
    files = []
    for d in sorted(set(MODEL_DIRS + LEXICAL_DIRS)):
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, _dirs, names in os.walk(top):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    files.append(os.path.join(dirpath, name))
    return files


def build_model(file_texts: list[tuple[str, str]]) -> Model:
    """file_texts: [(rel_path, text)]. Declarations first (so cross-file
    receiver types resolve), then function bodies."""
    model = Model()
    for rel, text in file_texts:
        model.files[rel.replace(os.sep, "/")] = SourceFile(rel, text)
    for sf in model.files.values():
        parse_declarations(model, sf)
    for sf in model.files.values():
        parse_functions_textual(model, sf)
    return model


def run_rules(model: Model, dot_path: str | None = None,
              call_depth: int = 3, verbose: bool = False,
              rules: tuple[str, ...] = ("MML101", "MML102", "MML103",
                                        "MML104", "MML002", "MML003"),
              ) -> list[Finding]:
    findings: list[Finding] = []
    for sf in model.files.values():
        findings.extend(sf.bad_suppressions)
    summaries = compute_summaries(model, call_depth)
    if "MML101" in rules:
        findings.extend(check_mml101(model, summaries, dot_path, verbose))
    if "MML102" in rules:
        findings.extend(check_mml102(model))
    if "MML103" in rules:
        findings.extend(check_mml103(model))
    if "MML104" in rules:
        for sf in model.files.values():
            findings.extend(check_mml104(sf))
    if "MML002" in rules:
        findings.extend(check_mml002_ast(model))
    if "MML003" in rules:
        findings.extend(check_mml003_ast(model))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--root", default=default_root)
    parser.add_argument("-p", "--build-dir", default=None,
                        help="directory holding compile_commands.json "
                             "(default: <root>/build)")
    parser.add_argument("--frontend", choices=("auto", "textual", "libclang"),
                        default="auto",
                        help="auto tries libclang and falls back to the "
                             "textual parser with a warning")
    parser.add_argument("--dot", default=None,
                        help="lock-hierarchy DOT output path "
                             "(default: <root>/build/lock_hierarchy.dot; "
                             "'-' disables)")
    parser.add_argument("--call-depth", type=int, default=3,
                        help="callee lock-summary propagation depth")
    parser.add_argument("--verbose", action="store_true",
                        help="print every observed lock edge")
    parser.add_argument("files", nargs="*",
                        help="restrict REPORTED findings to these paths "
                             "(the model is always whole-tree)")
    args = parser.parse_args(argv)

    def warn(msg: str) -> None:
        print(f"mm_verify: warning: {msg}", file=sys.stderr)

    root = os.path.abspath(args.root)
    build_dir = args.build_dir or os.path.join(root, "build")
    file_texts: list[tuple[str, str]] = []
    for path in collect_tree(root):
        rel = os.path.relpath(path, root)
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                file_texts.append((rel, f.read()))
        except OSError as e:
            warn(f"unreadable {rel}: {e}")
    model = build_model(file_texts)

    if args.frontend in ("auto", "libclang"):
        ok = parse_functions_libclang(model, root, build_dir, warn)
        if not ok and args.frontend == "libclang":
            warn("libclang frontend requested but unavailable; "
                 "rules still ran on the textual model")

    dot_path = args.dot
    if dot_path is None:
        dot_path = os.path.join(root, "build", "lock_hierarchy.dot")
    elif dot_path == "-":
        dot_path = None

    findings = run_rules(model, dot_path=dot_path,
                         call_depth=args.call_depth, verbose=args.verbose)
    if args.files:
        wanted = {os.path.relpath(os.path.abspath(f), root).replace(
            os.sep, "/") for f in args.files}
        findings = [f for f in findings if f.path in wanted]

    for f in findings:
        print(f)
    n_funcs = len(model.functions)
    n_locks = len(model.all_mutexes())
    tag = (f"frontend={model.frontend}, {n_funcs} functions, "
           f"{n_locks} mutexes")
    if findings:
        print(f"mm_verify: {len(findings)} finding(s) ({tag})",
              file=sys.stderr)
    else:
        print(f"mm_verify: clean ({tag})", file=sys.stderr)
    return min(len(findings), 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
