#!/usr/bin/env python3
"""mm_lint: MegaMmap-specific static checks the generic tools can't express.

Rules (see DESIGN.md "Concurrency contracts & static analysis"):

  MML001  Raw std synchronization primitive (std::mutex, std::lock_guard,
          std::unique_lock, std::condition_variable, ...) outside util/.
          All runtime code must use the annotated mm::Mutex / mm::MutexLock /
          mm::CondVar wrappers so Clang's -Wthread-safety sees the locking.
  MML002  PagePool buffer leaks and PCache Pin/Unpin imbalance: checked
  MML003  only by ci/mm_verify.py's dataflow passes (any machine).
  MML004  MM_CHECK inside a DESIGN.md §7 hot-path function
          (Span::operator[], PCache::{Find,Touch,MarkElemDirty,PickVictim},
          PagePool::{Acquire,AcquireZeroed,Release}). The fast path is two
          integer ops by contract; checks belong on the scalar At/Read/Set
          entry points.
  MML005  (void)-discarded call without a reason comment. Discarding a
          [[nodiscard]] Status is allowed only with a same-line or
          preceding-line comment saying why the error cannot matter.
  MML006  Telemetry metric name (string literal passed to GetCounter /
          GetGauge / GetHistogram in include/ or src/) that does not match
          `mm.<subsystem>.<name>` (lowercase + underscores) or lacks a unit
          suffix (_bytes, _ns, _count, _ratio). The name catalog in
          DESIGN.md §11 and the epoch-report diffing both rely on this
          scheme.
  MML007  Direct std::ofstream/std::fstream open of a final path in ckpt
          code (src/ckpt/, include/mm/ckpt/). Checkpoint artifacts must be
          published via write-to-temp + rename (DESIGN.md §12) so readers
          never observe a torn file. Exempt: append-mode opens (the redo
          journal IS the write-ahead log), paths whose text mentions
          tmp/temp, and functions that rename() the file into place.
  MML008  Unbounded receive (Recv/RecvValue/RecvBytes) in runtime code
          outside comm/. The blocking variants abort the process when the
          peer dies; everything above the comm layer must use the
          deadline-returning *Or variants (RecvOr/RecvValueOr/RecvBytesOr)
          so node death surfaces as a kPeerDead Status the caller can
          route into recovery (DESIGN.md §13). comm/ itself and the test
          tree keep the blocking forms (fixtures and the wrappers'
          definitions).
  MML009  Raw PageFrame version access (`frame->version` / `frame.version`
          on an identifier containing "frame") outside core/pcache and
          core/optimistic_guard. The version word is half of the seqlock
          (DESIGN.md §14): reading it without the OptimisticGuard
          acquire/validate protocol, or writing it without a
          FrameWriteGuard section, tears the read-side invariant. Use
          OptimisticGuard::Version / SetVersion (or a guard object).
  MML010  Metric catalog drift (whole-tree check, runs on full scans
          only). Every `mm.*` name passed as a string literal to
          GetCounter/GetGauge/GetHistogram in include/ + src/ must appear
          in the DESIGN.md §11 "Metric catalog" table, and every catalog
          entry must be registered somewhere in include/ + src/. The
          catalog is the contract dashboards and the epoch-report diffing
          build against; an undocumented metric is invisible to them, a
          stale entry is a broken promise. Catalog rows are
          `| `mm.family.*` | `name`, `{a,b}_suffix`, ... |` with brace
          groups expanded combinatorially.
  MML011  Raw B-tree node byte access (`.leaf.keys`, `->inner.seps`,
          `node.hdr`, ...) outside the index subsystem. A NodeBlock is one
          DSM page whose frame seqlock doubles as the node version lock
          (DESIGN.md §15): reading its fields without a validated snapshot
          (NodeRef over a TryReadOptimistic/probe copy) or writing them
          outside a FrameWriteGuard section tears the latch-free readers.
          Only include/mm/index/ + src/index/ may touch node internals;
          tests/test_btree.cc is exempt as the white-box layout test.

Suppression: put `mm-lint: allow(MMLnnn <reason>)` in a comment on the
offending line or the line directly above it. Suppressions without a
reason are themselves findings.

Usage: python3 ci/mm_lint.py [--root DIR] [files...]
Exit status is the number of findings (0 == clean).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

SOURCE_DIRS = ("include", "src", "tests", "bench", "examples")
SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp")

# MML001 --------------------------------------------------------------------
RAW_SYNC_RE = re.compile(
    r"std::(?:recursive_|timed_|shared_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>"
)

# MML004: (filename substring, class-name hint, method name) ----------------
HOT_PATHS = [
    ("vector.h", "Span", "operator[]"),
    ("pcache", "PCache", "Find"),
    ("pcache", "PCache", "Touch"),
    ("pcache", "PCache", "MarkElemDirty"),
    ("pcache", "PCache", "PickVictim"),
    ("memory_task.h", "PagePool", "Acquire"),
    ("memory_task.h", "PagePool", "AcquireZeroed"),
    ("memory_task.h", "PagePool", "Release"),
]
MM_CHECK_RE = re.compile(r"\bMM_CHECK(?:_MSG)?\s*\(")

# MML005 --------------------------------------------------------------------
VOID_DISCARD_RE = re.compile(r"\(\s*void\s*\)\s*[\w:~]")

# MML006 --------------------------------------------------------------------
METRIC_GET_RE = re.compile(
    r"Get(?:Counter|Gauge|Histogram)\s*\(\s*\"([^\"]*)\"")
METRIC_NAME_RE = re.compile(r"mm\.[a-z_]+\.[a-z_]+\Z")
METRIC_UNIT_SUFFIXES = ("_bytes", "_ns", "_count", "_ratio")

# MML007 --------------------------------------------------------------------
CKPT_STREAM_RE = re.compile(r"std::(?:ofstream|fstream)\b[^;]*")
CKPT_DIRS = ("src/ckpt/", "include/mm/ckpt/")

# MML009 --------------------------------------------------------------------
# An identifier containing "frame" (any case) dereferencing `.version` /
# `->version`. The seqlock implementation itself lives in core/pcache and
# core/optimistic_guard; everyone else goes through the guard API.
FRAME_VERSION_RE = re.compile(
    r"\b(\w*[Ff]rame\w*)\s*(?:\.|->)\s*version\b")
FRAME_VERSION_EXEMPT = ("core/pcache", "core/optimistic_guard")

# MML008 --------------------------------------------------------------------
# Matches `.Recv(`, `->RecvValue<T>(`, `.RecvBytes(` — the lookahead stops
# the alternatives from matching a prefix of the *Or deadline variants.
UNBOUNDED_RECV_RE = re.compile(
    r"(?:\.|->)\s*(Recv(?:Bytes|Value)?)(?=\s*[<(])")
COMM_DIRS = ("src/comm/", "include/mm/comm/")

# MML011 --------------------------------------------------------------------
# Two routes into node bytes: through the NodeBlock union arms
# (`blk.leaf.keys`, `->inner.children`) or through an identifier containing
# "node" touching a node field directly. The index subsystem owns both.
TREE_NODE_UNION_RE = re.compile(
    r"(?:\.|->)\s*(leaf|inner)\s*\.\s*(keys|vals|seps|children|fence)\b")
TREE_NODE_IDENT_RE = re.compile(
    r"\b(\w*[Nn]ode\w*)\s*(?:\.|->)\s*(hdr|keys|vals|seps|children|fence)\b")
TREE_NODE_EXEMPT = ("include/mm/index/", "src/index/", "tests/test_btree.cc")

ALLOW_RE = re.compile(r"mm-lint:\s*allow\(\s*(MML\d{3})\b([^)]*)\)")

# MML010 --------------------------------------------------------------------
CATALOG_HEADER = "### Metric catalog"
CATALOG_FAMILY_RE = re.compile(r"`(mm\.[a-z_]+)\.\*`")
CATALOG_TOKEN_RE = re.compile(r"`([^`]+)`")
BRACE_RE = re.compile(r"\{([^{}]*)\}")


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


class FileScanner:
    def __init__(self, path: str, text: str, rel: str):
        self.path = path
        self.rel = rel
        self.text = text
        self.code = strip_comments_and_strings(text)
        self.lines = text.split("\n")
        self.code_lines = self.code.split("\n")
        self.findings: list[Finding] = []
        self.suppressions: dict[int, set[str]] = {}  # line -> rules
        self._collect_suppressions()

    def _collect_suppressions(self) -> None:
        for idx, line in enumerate(self.lines):
            for m in ALLOW_RE.finditer(line):
                rule, reason = m.group(1), m.group(2).strip()
                if not reason:
                    self.findings.append(
                        Finding(self.rel, idx + 1, rule,
                                "suppression without a reason "
                                "(use `mm-lint: allow(MMLnnn why)`)"))
                    continue
                # A suppression covers its own line and the next line, so a
                # comment directly above the offending statement works.
                self.suppressions.setdefault(idx + 1, set()).add(rule)
                self.suppressions.setdefault(idx + 2, set()).add(rule)

    def suppressed(self, line: int, rule: str) -> bool:
        return rule in self.suppressions.get(line, set())

    def report(self, line: int, rule: str, message: str) -> None:
        if not self.suppressed(line, rule):
            self.findings.append(Finding(self.rel, line, rule, message))

    # -- helpers ------------------------------------------------------------

    def enclosing_block(self, pos: int) -> tuple[int, int] | None:
        """[start, end) offsets of the innermost braced block containing pos
        whose opening brace ends a function-like header (not if/for/...)."""
        stack: list[int] = []
        best: tuple[int, int] | None = None
        depth_at_pos: list[int] = []
        for i, c in enumerate(self.code):
            if c == "{":
                stack.append(i)
            elif c == "}":
                if stack:
                    start = stack.pop()
                    if start < pos < i and self._looks_like_function(start):
                        if best is None or start > best[0]:
                            best = (start, i)
        _ = depth_at_pos
        return best

    def _looks_like_function(self, brace_pos: int) -> bool:
        """Heuristic: the text before `{` (same logical header) ends with `)`
        or a function-ish suffix (const, noexcept, attribute macro)."""
        header = self.code[:brace_pos].rstrip()
        # Walk back over trailing qualifiers/annotation macros.
        for _ in range(8):
            for suffix in ("const", "noexcept", "override", "final"):
                if header.endswith(suffix):
                    header = header[: -len(suffix)].rstrip()
            m = re.search(r"(?:MM_\w+|__attribute__)\s*\([^()]*\)$", header)
            if m:
                header = header[: m.start()].rstrip()
            elif header.endswith(("MM_NO_THREAD_SAFETY_ANALYSIS",)):
                header = header[: -len("MM_NO_THREAD_SAFETY_ANALYSIS")].rstrip()
            else:
                break
        if not header.endswith(")"):
            return False
        # Reject control-flow statements: scan back to the matching '('.
        depth = 0
        for i in range(len(header) - 1, -1, -1):
            c = header[i]
            if c == ")":
                depth += 1
            elif c == "(":
                depth -= 1
                if depth == 0:
                    before = header[:i].rstrip()
                    kw = re.search(r"(\w+)$", before)
                    if kw and kw.group(1) in (
                            "if", "for", "while", "switch", "catch", "return"):
                        return False
                    return True
        return False

    def line_of(self, pos: int) -> int:
        return self.code.count("\n", 0, pos) + 1

    # -- rules --------------------------------------------------------------

    def check_mml001(self) -> None:
        rel_norm = self.rel.replace(os.sep, "/")
        if "/util/" in rel_norm or rel_norm.startswith("ci/"):
            return
        if not rel_norm.startswith(("include/", "src/")):
            return
        for idx, line in enumerate(self.code_lines):
            m = RAW_SYNC_RE.search(line)
            if m:
                self.report(idx + 1, "MML001",
                            f"raw `{m.group(0).strip()}` outside util/ — use "
                            "mm::Mutex / mm::MutexLock / mm::CondVar "
                            "(mm/util/mutex.h)")

    def check_mml004(self) -> None:
        base = os.path.basename(self.rel)
        for fname_part, cls, method in HOT_PATHS:
            if fname_part not in base:
                continue
            if method == "operator[]":
                pattern = re.compile(r"operator\[\]\s*\(")
            else:
                pattern = re.compile(
                    r"(?:[\w>]+\s+|::)" + re.escape(cls) +
                    r"::" + re.escape(method) + r"\s*\(" +
                    r"|\b" + re.escape(method) + r"\s*\([^;{]*\)[^;{]*\{")
            for m in pattern.finditer(self.code):
                block = self.enclosing_body_after(m.start())
                if block is None:
                    continue
                body = self.code[block[0]:block[1]]
                cm = MM_CHECK_RE.search(body)
                if cm:
                    line = self.line_of(block[0] + cm.start())
                    self.report(line, "MML004",
                                f"MM_CHECK inside hot path {cls}::{method} "
                                "(DESIGN.md §7: the fast path must stay "
                                "check-free; validate at the scalar entry "
                                "points instead)")

    def enclosing_body_after(self, pos: int) -> tuple[int, int] | None:
        """Body `{...}` of the function whose definition starts at pos.
        Returns None for declarations (`;` before any `{`)."""
        i = pos
        n = len(self.code)
        while i < n:
            c = self.code[i]
            if c == ";":
                return None
            if c == "{":
                depth = 1
                j = i + 1
                while j < n and depth:
                    if self.code[j] == "{":
                        depth += 1
                    elif self.code[j] == "}":
                        depth -= 1
                    j += 1
                return (i, j)
            i += 1
        return None

    def check_mml005(self) -> None:
        for idx, line in enumerate(self.code_lines):
            m = VOID_DISCARD_RE.search(line)
            if not m:
                continue
            # A reason comment on the same line or the line above satisfies
            # the audit requirement (original text, since comments are
            # stripped from self.code_lines).
            here = self.lines[idx]
            above = self.lines[idx - 1] if idx > 0 else ""
            has_comment = "//" in here or above.lstrip().startswith("//")
            if not has_comment:
                self.report(idx + 1, "MML005",
                            "(void)-discard without a reason comment — say "
                            "why the result cannot matter, on this line or "
                            "the line above")

    def check_mml006(self) -> None:
        # Runtime code only: tests/benches may register ad-hoc names for
        # fixtures. Scans the ORIGINAL text because string literals are
        # blanked out of self.code.
        rel_norm = self.rel.replace(os.sep, "/")
        if not rel_norm.startswith(("include/", "src/")):
            return
        for m in METRIC_GET_RE.finditer(self.text):
            name = m.group(1)
            # Anchor the finding on the literal itself (multi-line calls).
            line = self.text.count("\n", 0, m.start(1)) + 1
            if not METRIC_NAME_RE.fullmatch(name):
                self.report(line, "MML006",
                            f'metric name "{name}" must match '
                            "`mm.<subsystem>.<name>` "
                            "(lowercase letters and underscores)")
            elif not name.endswith(METRIC_UNIT_SUFFIXES):
                self.report(line, "MML006",
                            f'metric name "{name}" lacks a unit suffix '
                            f"({', '.join(METRIC_UNIT_SUFFIXES)})")

    def check_mml007(self) -> None:
        # Crash-consistency contract (DESIGN.md §12): checkpoint artifacts
        # are published atomically. Scans the ORIGINAL text so path
        # expressions like `path + ".tmp"` stay visible.
        rel_norm = self.rel.replace(os.sep, "/")
        if not rel_norm.startswith(CKPT_DIRS):
            return
        for m in CKPT_STREAM_RE.finditer(self.text):
            stmt = m.group(0)
            if "ios::app" in stmt:
                continue  # the redo journal IS the write-ahead log
            if re.search(r"tmp|temp", stmt, re.IGNORECASE):
                continue  # the temp half of a temp+rename publish
            pos = m.start()
            block = self.enclosing_block(pos)
            if block is not None and re.search(
                    r"\brename\s*\(", self.code[block[0]:block[1]]):
                continue  # the same function renames the file into place
            self.report(self.text.count("\n", 0, pos) + 1, "MML007",
                        "direct stream open of a final path in ckpt code — "
                        "publish via write-to-temp + std::filesystem::rename "
                        "(or open the journal in append mode)")

    def check_mml008(self) -> None:
        # Failure-model contract (DESIGN.md §13): only the comm layer may
        # block unboundedly; callers above it must see peer death as a
        # Status, not an abort.
        rel_norm = self.rel.replace(os.sep, "/")
        if not rel_norm.startswith(("include/", "src/")):
            return
        if rel_norm.startswith(COMM_DIRS):
            return
        for idx, line in enumerate(self.code_lines):
            m = UNBOUNDED_RECV_RE.search(line)
            if m:
                self.report(idx + 1, "MML008",
                            f"unbounded `{m.group(1)}` outside comm/ aborts "
                            "on peer death — use the deadline variant "
                            f"`{m.group(1)}Or` and route kPeerDead into "
                            "recovery")

    def check_mml009(self) -> None:
        # Seqlock contract (DESIGN.md §14): PageFrame::version is the
        # read-side word of the optimistic guard; only its implementation
        # files may touch it directly.
        rel_norm = self.rel.replace(os.sep, "/")
        if any(part in rel_norm for part in FRAME_VERSION_EXEMPT):
            return
        for idx, line in enumerate(self.code_lines):
            m = FRAME_VERSION_RE.search(line)
            if m:
                self.report(idx + 1, "MML009",
                            f"raw `{m.group(1)}` version access outside the "
                            "seqlock implementation — use OptimisticGuard::"
                            "Version/SetVersion (reads need the acquire + "
                            "validate protocol, writes a FrameWriteGuard)")

    def check_mml011(self) -> None:
        # Ordered-index contract (DESIGN.md §15): NodeBlock bytes are only
        # coherent under the frame seqlock / write-guard protocol the index
        # subsystem implements; everyone else goes through BTree's API.
        rel_norm = self.rel.replace(os.sep, "/")
        if rel_norm.startswith(TREE_NODE_EXEMPT):
            return
        for idx, line in enumerate(self.code_lines):
            m = TREE_NODE_UNION_RE.search(line)
            if m:
                self.report(idx + 1, "MML011",
                            f"raw node byte access `{m.group(1)}.{m.group(2)}` "
                            "outside index/ — go through mm::BTree (or NodeRef "
                            "over a guard-validated snapshot)")
                continue
            m = TREE_NODE_IDENT_RE.search(line)
            if m:
                self.report(idx + 1, "MML011",
                            f"raw node field access `{m.group(1)}.{m.group(2)}` "
                            "outside index/ — go through mm::BTree (or NodeRef "
                            "over a guard-validated snapshot)")

    def run(self) -> list[Finding]:
        self.check_mml001()
        self.check_mml004()
        self.check_mml005()
        self.check_mml006()
        self.check_mml007()
        self.check_mml008()
        self.check_mml009()
        self.check_mml011()
        return self.findings


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
    start = None
    for i, line in enumerate(lines):
        if line.strip() == CATALOG_HEADER:
            start = i
            break
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
        if len(cells) < 2:
            continue
        fam = CATALOG_FAMILY_RE.match(cells[0])
        if fam is None:
            continue  # header / divider rows
        family = fam.group(1)
        for tok in CATALOG_TOKEN_RE.finditer(cells[1]):
            for name in expand_token(tok.group(1)):
                names.setdefault(family + "." + name, idx + 1)
    return names


def check_mml010(root: str) -> list[Finding]:
    """Whole-tree catalog cross-check: code metric literals vs the
    DESIGN.md §11 catalog, both directions."""
    design_path = os.path.join(root, "DESIGN.md")
    try:
        with open(design_path, "r", encoding="utf-8", errors="replace") as f:
            design_text = f.read()
    except OSError:
        return []  # nothing to cross-check against
    catalog = parse_metric_catalog(design_text)
    if catalog is None:
        return [Finding("DESIGN.md", 1, "MML010",
                        f"missing `{CATALOG_HEADER}` section in §11 — the "
                        "metric catalog is the contract MML010 checks "
                        "registrations against")]

    findings: list[Finding] = []
    used: dict[str, tuple[str, int]] = {}
    for d in ("include", "src"):
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, _dirnames, filenames in os.walk(top):
            for fname in sorted(filenames):
                if not fname.endswith(SOURCE_EXTS):
                    continue
                path = os.path.join(dirpath, fname)
                rel = os.path.relpath(path, root)
                try:
                    with open(path, "r", encoding="utf-8",
                              errors="replace") as f:
                        text = f.read()
                except OSError:
                    continue
                lines = text.split("\n")
                for m in METRIC_GET_RE.finditer(text):
                    name = m.group(1)
                    if not name.startswith("mm."):
                        continue  # MML006's problem, not drift
                    line = text.count("\n", 0, m.start(1)) + 1
                    # Honor the standard allow-comment on the literal's
                    # line or the line above it.
                    here = lines[line - 1] if line - 1 < len(lines) else ""
                    above = lines[line - 2] if line >= 2 else ""
                    if any("MML010" == a.group(1)
                           for l in (here, above)
                           for a in ALLOW_RE.finditer(l)):
                        continue
                    used.setdefault(name, (rel, line))
    for name in sorted(used):
        if name not in catalog:
            rel, line = used[name]
            findings.append(Finding(
                rel, line, "MML010",
                f'metric "{name}" is not in the DESIGN.md §11 metric '
                "catalog — add it to the family table"))
    for name in sorted(catalog):
        if name not in used:
            findings.append(Finding(
                "DESIGN.md", catalog[name], "MML010",
                f'catalog metric "{name}" is not registered anywhere in '
                "include/ or src/ — remove the entry or wire the metric up"))
    return findings


def lint_file(path: str, root: str) -> list[Finding]:
    rel = os.path.relpath(path, root)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [Finding(rel, 0, "MML000", f"unreadable: {e}")]
    return FileScanner(path, text, rel).run()


def collect_files(root: str) -> list[str]:
    files = []
    for d in SOURCE_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, _dirnames, filenames in os.walk(top):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    files.append(os.path.join(dirpath, name))
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("files", nargs="*",
                        help="explicit files (default: scan the tree)")
    args = parser.parse_args(argv)

    files = args.files or collect_files(args.root)
    findings: list[Finding] = []
    for path in files:
        findings.extend(lint_file(path, args.root))
    if not args.files:
        # Whole-tree cross-checks only make sense on full scans; a partial
        # file list would report catalog drift it cannot see the fix for.
        findings.extend(check_mml010(args.root))

    for f in findings:
        print(f)
    if findings:
        print(f"mm_lint: {len(findings)} finding(s)", file=sys.stderr)
    else:
        print("mm_lint: clean", file=sys.stderr)
    return min(len(findings), 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
