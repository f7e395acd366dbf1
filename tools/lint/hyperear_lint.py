#!/usr/bin/env python3
"""HyperEar determinism & hygiene linter (DESIGN.md §11).

Project-invariant checks that neither the compiler nor clang-tidy enforce,
applied regex/AST-lite style over the checked-in sources:

  determinism   no rand()/std::random_device and no wall-clock reads
                (system_clock, high_resolution_clock) anywhere under src/;
                steady_clock is allowed only in src/obs and src/runtime
                (telemetry), so pipeline results stay a pure function of
                the session data. All randomness goes through the seeded
                common/rng.hpp.
  ownership     no naked new/delete in library code (src/): containers and
                smart pointers own everything; bench binaries may replace
                the global allocator. thread_local appears in library code
                only in the files of THREAD_LOCAL_ALLOWED: hidden
                per-thread state stays a reviewed decision, and an entry
                whose file no longer declares one is stale and fails.
  logging       no printf/puts/cout-style output in library code (src/):
                snprintf formatting into a caller buffer is fine, writing
                to stdout from a library is not.
  headers       every header uses #pragma once; no <iostream> in headers
                (it drags an ELF-wide static initializer into every TU).
  suppressions  every NOLINT escape hatch carries a written reason:
                `// NOLINT(<check>) -- <why>`.
  hotpath       files listed in tools/lint/hotpath_files.txt run once per
                session in the batch engine's steady state, where buffers
                come from a leased SessionWorkspace and allocate nothing.
                In those files, std::vector value declarations (locals,
                by-value parameters, by-value returns) and resize/reserve
                on receivers that are not workspace-owned (`ws.*`, `out`,
                `workspace*`, or an ArenaVector declared in the file) are
                flagged. Cold-path code in a hot file — plan construction,
                convenience wrappers returning owning containers —
                suppresses with `NOLINT(hyperear-hotpath) -- <why>`
                (NEXTLINE/BEGIN/END work too, reasons required as usual).
                A hotpath suppression that covers no line the rule would
                flag (its code was deleted or rewritten, or its file is
                not in the manifest) is stale and is itself a finding.
  concurrency   src/runtime + src/obs never name the raw std primitives
                (std::mutex, std::lock_guard, std::unique_lock,
                std::condition_variable, ...): they use the annotated
                he::Mutex / he::MutexLock / he::CondVar wrappers from
                common/thread_annotations.hpp so every lock site is
                visible to clang's thread-safety analysis. Anywhere in
                the tree, HE_NO_THREAD_SAFETY_ANALYSIS must carry a
                non-empty reason string.
  lockorder     tools/lint/lock_order.txt is the canonical lock
                hierarchy. Every he::Mutex MEMBER declared in a header
                under src/runtime + src/obs must carry HE_LOCK_LEVEL(<l>)
                on the declaration line, the (level, file, member) triple
                must match a manifest row (and vice versa — stale rows
                fail), and the boundary-token HE_ACQUIRED_AFTER chain in
                common/thread_annotations.hpp must spell out the same
                level order as the manifest.
  orphan        every header under src/ is #included by at least one file
                under src/, tools/, bench/, examples/ or perfbench/ other
                than its own .cpp. A module that only its unit test reaches
                has no caller and is deleted, not kept "for later".
  whitespace    no trailing whitespace, no tabs in C++ sources, no CRLF,
                final newline present — the formatting floor that holds
                even where clang-format isn't installed.

Exit status: 0 clean, 1 findings, 2 usage error. --json PATH additionally
writes machine-readable findings (the run_lint.sh driver merges these into
LINT_report.json).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

CXX_EXTENSIONS = {".cpp", ".hpp", ".cc", ".h"}

# Directories scanned relative to the repo root. Build trees are never
# scanned.
SCAN_DIRS = ["src", "bench", "tools", "tests", "examples"]

# Library code: the determinism/ownership/logging rules apply here.
LIBRARY_PREFIX = "src/"
# The only library files that may declare thread_local state (ownership
# rule): the metrics registry's shard index and the per-thread ASP chunk
# scratch.
THREAD_LOCAL_ALLOWED = {"src/obs/metrics.cpp", "src/core/parallel.cpp"}
# Telemetry layers where the monotonic clock is sanctioned.
STEADY_CLOCK_ALLOWED = ("src/obs/", "src/runtime/")

# Checked-in manifest of steady-state per-session files (hotpath rule).
HOTPATH_MANIFEST = "tools/lint/hotpath_files.txt"

# Layers where the annotated wrappers are mandatory (concurrency rule) and
# whose header-declared mutexes must appear in the lock-order manifest.
CONCURRENCY_DIRS = ("src/runtime/", "src/obs/")
# Checked-in lock hierarchy (lockorder rule).
LOCK_ORDER_MANIFEST = "tools/lint/lock_order.txt"
# Defines the wrappers and the boundary-token chain; exempt from the
# concurrency rule (it IS the sanctioned spelling of the std primitives).
THREAD_ANNOTATIONS_HEADER = "src/common/thread_annotations.hpp"

# Where a src/ header's callers may live (orphan rule); tests/ does not
# count. perfbench is read for its includes but not linted.
CALLER_DIRS = ["src", "tools", "bench", "examples", "perfbench"]
QUOTED_INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)

LINE_COMMENT = re.compile(r"//.*$")

RULES_HELP = (
    "determinism ownership logging headers suppressions hotpath "
    "concurrency lockorder orphan whitespace"
)


def load_hotpath_manifest(root: Path) -> set[str]:
    manifest = root / HOTPATH_MANIFEST
    if not manifest.is_file():
        return set()
    entries: set[str] = set()
    for line in manifest.read_text(encoding="utf-8").splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry:
            entries.add(entry.replace("\\", "/"))
    return entries


def load_lock_order_manifest(root: Path) -> tuple[list[str], list[dict], list[str]]:
    """Parse LOCK_ORDER_MANIFEST into (ordered levels, mutex rows, parse
    errors). Rows are {level, file, member, line}."""
    manifest = root / LOCK_ORDER_MANIFEST
    levels: list[str] = []
    rows: list[dict] = []
    errors: list[str] = []
    if not manifest.is_file():
        return levels, rows, errors
    for idx, raw in enumerate(manifest.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "level" and len(parts) == 2:
            if parts[1] in levels:
                errors.append(f"line {idx}: duplicate level `{parts[1]}`")
            levels.append(parts[1])
        elif parts[0] == "mutex" and len(parts) == 4:
            rows.append(
                {
                    "level": parts[1],
                    "file": parts[2].replace("\\", "/"),
                    "member": parts[3],
                    "line": idx,
                }
            )
        else:
            errors.append(f"line {idx}: expected `level <name>` or `mutex <level> <file> <member>`")
    for row in rows:
        if row["level"] not in levels:
            errors.append(
                f"line {row['line']}: mutex row uses undeclared level `{row['level']}`"
            )
    return levels, rows, errors


def strip_comments_and_strings(line: str) -> str:
    """Best-effort removal of // comments and string/char literals so the
    regexes below match code, not prose. Block comments spanning lines are
    handled by the caller's state machine."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in ('"', "'"):
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


class HotpathSuppressions:
    """The hotpath suppressions of one file, and whether each covers a line
    the rule would flag. The rule honors the project's NOLINT-with-reason
    forms when the named check mentions "hotpath": NOLINT covers its own
    line, NOLINTNEXTLINE the next one, and NOLINTBEGIN..NOLINTEND every line
    from the BEGIN line through the END line. A suppression whose lines
    are all clean is reported when its coverage ends."""

    LINE = re.compile(r"NOLINT\([^)]*hotpath[^)]*\)")
    NEXTLINE = re.compile(r"NOLINTNEXTLINE\([^)]*hotpath[^)]*\)")
    BEGIN = re.compile(r"NOLINTBEGIN\([^)]*hotpath[^)]*\)")
    END = re.compile(r"NOLINTEND\([^)]*hotpath[^)]*\)")

    def __init__(self, linter: "Linter", path: Path):
        self.linter = linter
        self.path = path
        # Open suppressions as [directive line, form, covered a violation].
        self.block: list | None = None
        self.next: list | None = None

    def cover(self, idx: int, line: str, flagged: bool) -> bool:
        """Record line `idx`; True when a hotpath suppression covers it."""
        if self.BEGIN.search(line):
            self.close(self.block)
            self.block = [idx, "NOLINTBEGIN", False]
        own = [idx, "NOLINT", False] if self.LINE.search(line) else None
        covering = [s for s in (self.block, self.next, own) if s is not None]
        for s in covering:
            s[2] = s[2] or flagged
        self.close(self.next)
        self.next = None
        self.close(own)
        if self.END.search(line):
            self.close(self.block)
            self.block = None
        if self.NEXTLINE.search(line):
            self.next = [idx, "NOLINTNEXTLINE", False]
        return bool(covering)

    def finish(self) -> None:
        self.close(self.block)
        self.close(self.next)
        self.block = self.next = None

    def close(self, s: list | None) -> None:
        if s is not None and not s[2]:
            self.linter.add(
                "hotpath",
                self.path,
                s[0],
                f"stale {s[1]}(hyperear-hotpath): it covers no line the "
                "hotpath rule flags; delete it",
            )


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.findings: list[dict] = []
        self.hotpath_files = load_hotpath_manifest(root)
        self.hotpath_seen: set[str] = set()
        self.thread_local_seen: set[str] = set()
        self.lock_levels, self.lock_rows, self.lock_manifest_errors = (
            load_lock_order_manifest(root)
        )
        # he::Mutex member declarations found in concurrency-layer headers:
        # (rel file, line, member name, level or None).
        self.mutex_decls: list[tuple[str, int, str, str | None]] = []

    def add(self, rule: str, path: Path, line_no: int, message: str) -> None:
        self.findings.append(
            {
                "tool": "hyperear_lint",
                "rule": rule,
                "file": str(path.relative_to(self.root)),
                "line": line_no,
                "message": message,
            }
        )

    # --- per-file checks -------------------------------------------------

    def lint_file(self, path: Path) -> None:
        rel = str(path.relative_to(self.root)).replace("\\", "/")
        raw = path.read_bytes()
        if b"\r\n" in raw:
            self.add("whitespace", path, 1, "CRLF line endings")
        text = raw.decode("utf-8", errors="replace")
        lines = text.split("\n")
        if text and not text.endswith("\n"):
            self.add("whitespace", path, len(lines), "missing final newline")

        is_header = path.suffix in {".hpp", ".h"}
        is_library = rel.startswith(LIBRARY_PREFIX)
        steady_ok = rel.startswith(STEADY_CLOCK_ALLOWED)
        is_concurrency = rel.startswith(CONCURRENCY_DIRS)
        is_hotpath = rel in self.hotpath_files
        arena_names: set[str] = set()
        if is_hotpath:
            self.hotpath_seen.add(rel)
            # ArenaVector-backed buffers bump a workspace arena, not the
            # heap: resize/reserve on them is sanctioned by declaration.
            arena_names = set(re.findall(r"\bArenaVector<[^>]*>\s+(\w+)", text))
        hot = HotpathSuppressions(self, path)

        in_block_comment = False
        for idx, line in enumerate(lines, start=1):
            self.check_whitespace(path, idx, line)
            code = line
            if in_block_comment:
                end = code.find("*/")
                if end < 0:
                    continue
                code = code[end + 2 :]
                in_block_comment = False
            # NOLINT audit runs on the raw line: the directive lives in a
            # comment by definition.
            self.check_suppression(path, idx, line)
            code = strip_comments_and_strings(code)
            start = code.find("/*")
            if start >= 0:
                end = code.find("*/", start + 2)
                if end < 0:
                    in_block_comment = True
                    code = code[:start]
                else:
                    code = code[:start] + code[end + 2 :]

            if is_header:
                self.check_header_line(path, idx, code)
            if is_library:
                self.check_determinism(path, idx, code, steady_ok)
                self.check_ownership(path, rel, idx, code)
                self.check_logging(path, idx, code)
            if rel != THREAD_ANNOTATIONS_HEADER:
                self.check_tsa_suppression(path, idx, code, line)
            if is_concurrency:
                self.check_concurrency(path, idx, code)
                if is_header:
                    self.collect_mutex_decl(rel, idx, code)
            # Suppression directives live in comments: read the raw line.
            # Outside the manifest the rule flags nothing, so there every
            # hotpath suppression is stale.
            violations = (
                self.hotpath_violations(code, arena_names) if is_hotpath else []
            )
            if not hot.cover(idx, line, bool(violations)):
                for message in violations:
                    self.add("hotpath", path, idx, message)
        hot.finish()

    def check_whitespace(self, path: Path, idx: int, line: str) -> None:
        stripped = line.rstrip("\r")
        if stripped != stripped.rstrip():
            self.add("whitespace", path, idx, "trailing whitespace")
        if "\t" in stripped:
            self.add("whitespace", path, idx, "tab character in C++ source")

    DETERMINISM_BANNED = [
        (re.compile(r"(?<![\w:])rand\s*\("), "rand(): use the seeded common/rng.hpp"),
        (re.compile(r"\bsrand\s*\("), "srand(): use the seeded common/rng.hpp"),
        (
            re.compile(r"\brandom_device\b"),
            "std::random_device: nondeterministic seed source; use common/rng.hpp",
        ),
        (
            re.compile(r"\bsystem_clock\b"),
            "system_clock: wall-clock read in library code",
        ),
        (
            re.compile(r"\bhigh_resolution_clock\b"),
            "high_resolution_clock: unspecified clock; telemetry uses obs/clock.hpp",
        ),
    ]

    def check_determinism(
        self, path: Path, idx: int, code: str, steady_ok: bool
    ) -> None:
        for pattern, why in self.DETERMINISM_BANNED:
            if pattern.search(code):
                self.add("determinism", path, idx, why)
        if not steady_ok and re.search(r"\bsteady_clock\b", code):
            self.add(
                "determinism",
                path,
                idx,
                "steady_clock outside src/obs+src/runtime: route timing "
                "through obs/clock.hpp",
            )

    NAKED_NEW = re.compile(r"(?<![\w_])new\s+[A-Za-z_(:<]")
    NAKED_DELETE = re.compile(r"(?<![\w_])delete(\s*\[\s*\])?\s+[A-Za-z_(:*]")

    THREAD_LOCAL = re.compile(r"\bthread_local\b")

    def check_ownership(self, path: Path, rel: str, idx: int, code: str) -> None:
        if self.THREAD_LOCAL.search(code):
            self.thread_local_seen.add(rel)
            if rel not in THREAD_LOCAL_ALLOWED:
                self.add(
                    "ownership",
                    path,
                    idx,
                    "thread_local outside the allow-list: per-thread state "
                    "is a reviewed decision (THREAD_LOCAL_ALLOWED in "
                    "tools/lint/hyperear_lint.py)",
                )
        if self.NAKED_NEW.search(code):
            self.add(
                "ownership", path, idx, "naked new: use containers/make_unique"
            )
        if self.NAKED_DELETE.search(code) and "= delete" not in code:
            self.add("ownership", path, idx, "naked delete: use owning types")

    LOGGING_BANNED = re.compile(
        r"(?<![\w:])(?:std\s*::\s*)?(printf|puts|putchar|vprintf)\s*\("
    )
    STDOUT_FPRINTF = re.compile(r"\bfprintf\s*\(\s*std(?:out|err)\b")

    def check_logging(self, path: Path, idx: int, code: str) -> None:
        if self.LOGGING_BANNED.search(code) or self.STDOUT_FPRINTF.search(code):
            self.add(
                "logging",
                path,
                idx,
                "stdout/stderr write in library code: return data, or format "
                "with snprintf into a caller buffer",
            )

    IOSTREAM_INCLUDE = re.compile(r"#\s*include\s*<iostream>")

    def check_header_line(self, path: Path, idx: int, code: str) -> None:
        if self.IOSTREAM_INCLUDE.search(code):
            self.add(
                "headers", path, idx, "#include <iostream> in a header"
            )

    NOLINT_ANY = re.compile(r"NOLINT(NEXTLINE|BEGIN|END)?\b")
    NOLINT_WITH_REASON = re.compile(
        r"NOLINT(?:NEXTLINE|BEGIN|END)?\(([^)]+)\)\s*--\s*\S"
    )

    def check_suppression(self, path: Path, idx: int, line: str) -> None:
        if not self.NOLINT_ANY.search(line) or "NOLINT_ANY" in line:
            return
        if not self.NOLINT_WITH_REASON.search(line):
            self.add(
                "suppressions",
                path,
                idx,
                "NOLINT without named check + reason: write "
                "`NOLINT(<check>) -- <why>`",
            )

    # Raw std synchronization primitives banned in the annotated layers
    # (the wrappers in common/thread_annotations.hpp are the only sanctioned
    # spelling — a raw primitive is invisible to the thread-safety analysis).
    RAW_SYNC_PRIMITIVE = re.compile(
        r"\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
        r"shared_mutex|shared_timed_mutex|condition_variable|"
        r"condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    )

    def check_concurrency(self, path: Path, idx: int, code: str) -> None:
        m = self.RAW_SYNC_PRIMITIVE.search(code)
        if m:
            self.add(
                "concurrency",
                path,
                idx,
                f"raw std::{m.group(1)} in an annotated layer: use he::Mutex/"
                "he::MutexLock/he::CondVar (common/thread_annotations.hpp) so "
                "the lock protocol stays machine-checked",
            )

    # The macro swallows its reason argument, so the string exists purely
    # for humans + this check — exactly the NOLINT-with-reason policy.
    TSA_SUPPRESS_USE = re.compile(r"\bHE_NO_THREAD_SAFETY_ANALYSIS\s*\(")
    TSA_SUPPRESS_WITH_REASON = re.compile(
        r'\bHE_NO_THREAD_SAFETY_ANALYSIS\(\s*"[^"]+"\s*\)'
    )

    def check_tsa_suppression(
        self, path: Path, idx: int, code: str, line: str
    ) -> None:
        if not self.TSA_SUPPRESS_USE.search(code):
            return
        if not self.TSA_SUPPRESS_WITH_REASON.search(line):
            self.add(
                "concurrency",
                path,
                idx,
                "HE_NO_THREAD_SAFETY_ANALYSIS without a reason: write "
                'HE_NO_THREAD_SAFETY_ANALYSIS("<why the protocol is sound '
                'but inexpressible>")',
            )

    # A he::Mutex member declaration; HE_LOCK_LEVEL must ride on the same
    # line (the project declares them single-line by convention).
    MUTEX_MEMBER_DECL = re.compile(r"\bhe\s*::\s*Mutex\s+(\w+)")
    MUTEX_LEVEL = re.compile(r"\bHE_LOCK_LEVEL\(\s*(\w+)\s*\)")

    def collect_mutex_decl(self, rel: str, idx: int, code: str) -> None:
        m = self.MUTEX_MEMBER_DECL.search(code)
        if m is None:
            return
        level = self.MUTEX_LEVEL.search(code)
        self.mutex_decls.append(
            (rel, idx, m.group(1), level.group(1) if level else None)
        )

    def check_lock_order(self) -> None:
        manifest = self.root / LOCK_ORDER_MANIFEST
        for err in self.lock_manifest_errors:
            self.add("lockorder", manifest, 1, err)
        if not self.lock_levels:
            self.add(
                "lockorder",
                manifest,
                1,
                "missing or empty lock-order manifest: every he::Mutex member "
                "in src/runtime + src/obs must be declared here",
            )
            return
        rows = {(r["file"], r["member"]): r for r in self.lock_rows}
        seen: set[tuple[str, str]] = set()
        for rel, idx, member, level in self.mutex_decls:
            path = self.root / rel
            if level is None:
                self.add(
                    "lockorder",
                    path,
                    idx,
                    f"he::Mutex member `{member}` without HE_LOCK_LEVEL(<level>) "
                    "on the declaration line",
                )
                continue
            if level not in self.lock_levels:
                self.add(
                    "lockorder",
                    path,
                    idx,
                    f"HE_LOCK_LEVEL({level}) names a level not in "
                    f"{LOCK_ORDER_MANIFEST}",
                )
                continue
            row = rows.get((rel, member))
            if row is None:
                self.add(
                    "lockorder",
                    path,
                    idx,
                    f"he::Mutex member `{member}` is not listed in "
                    f"{LOCK_ORDER_MANIFEST}: add `mutex {level} {rel} {member}`",
                )
                continue
            seen.add((rel, member))
            if row["level"] != level:
                self.add(
                    "lockorder",
                    path,
                    idx,
                    f"`{member}` declares HE_LOCK_LEVEL({level}) but the "
                    f"manifest says `{row['level']}` — fix whichever is wrong",
                )
        for key, row in sorted(rows.items()):
            if key not in seen:
                self.add(
                    "lockorder",
                    manifest,
                    row["line"],
                    f"stale manifest row: no he::Mutex member `{row['member']}` "
                    f"found in {row['file']}",
                )
        self.check_boundary_chain(manifest)

    # Boundary tokens in thread_annotations.hpp:
    #   inline LockLevel below_<level> [HE_ACQUIRED_AFTER(below_<prev>)];
    BOUNDARY_DECL = re.compile(
        r"inline\s+LockLevel\s+below_(\w+)"
        r"(?:\s+HE_ACQUIRED_AFTER\(\s*below_(\w+)\s*\))?\s*;"
    )
    LEVEL_MACRO_DEF = re.compile(r"#define\s+HE_LOCK_LEVEL_(\w+)\b")

    def check_boundary_chain(self, manifest: Path) -> None:
        header = self.root / THREAD_ANNOTATIONS_HEADER
        if not header.is_file():
            self.add(
                "lockorder", manifest, 1, f"{THREAD_ANNOTATIONS_HEADER} not found"
            )
            return
        text = header.read_text(encoding="utf-8", errors="replace")
        chain = self.BOUNDARY_DECL.findall(text)
        # Every level except the bottom one owns the boundary token below it,
        # and each token chains HE_ACQUIRED_AFTER the one above.
        expected = self.lock_levels[:-1]
        declared = [name for name, _ in chain]
        if declared != expected:
            self.add(
                "lockorder",
                header,
                1,
                f"boundary tokens {declared} disagree with the manifest level "
                f"order {self.lock_levels} (expected tokens {expected})",
            )
        for pos, (name, after) in enumerate(chain):
            want = chain[pos - 1][0] if pos > 0 else ""
            if (after or "") != want:
                self.add(
                    "lockorder",
                    header,
                    1,
                    f"boundary token below_{name} must chain "
                    f"HE_ACQUIRED_AFTER(below_{want})" if want else
                    f"boundary token below_{name} is the top boundary and "
                    "must not declare HE_ACQUIRED_AFTER",
                )
        macros = set(self.LEVEL_MACRO_DEF.findall(text))
        for level in self.lock_levels:
            if level not in macros:
                self.add(
                    "lockorder",
                    header,
                    1,
                    f"no #define HE_LOCK_LEVEL_{level} for manifest level "
                    f"`{level}`",
                )

    def check_orphans(self) -> None:
        src = self.root / "src"
        included: set[Path] = set()
        for d in CALLER_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*")):
                if path.suffix not in CXX_EXTENSIONS or not path.is_file():
                    continue
                text = path.read_text(encoding="utf-8", errors="replace")
                for name in QUOTED_INCLUDE.findall(text):
                    # Quoted includes search the includer's directory first,
                    # then the src/ include root.
                    for cand in (path.parent / name, src / name):
                        if cand.is_file():
                            target = cand.resolve()
                            if target.with_suffix("") != path.resolve().with_suffix(""):
                                included.add(target)
                            break
        for header in sorted(src.rglob("*.hpp")):
            if header.resolve() not in included:
                self.add(
                    "orphan",
                    header,
                    1,
                    "no file under src/ tools/ bench/ examples/ perfbench/ "
                    "includes this header (its own .cpp and tests/ do not "
                    "count): delete the module, or give it a caller",
                )

    HOT_RESIZE = re.compile(r"([A-Za-z_]\w*(?:(?:\.|->)\w+)*)\s*\.\s*(resize|reserve)\s*\(")
    # Receivers that bump workspace-owned storage, not the heap: leased
    # DetectorWorkspace fields (`ws.*`), the caller-owned `_into` output
    # convention (`out`), and anything spelled as a workspace.
    HOT_SANCTIONED_RECEIVERS = {"ws", "out", "workspace"}

    def hotpath_violations(self, code: str, arena_names: set[str]) -> list[str]:
        """The hotpath rule's messages for one line of a manifest file."""
        messages = [
            "std::vector value construction in a steady-state file: "
            "route buffers through SessionWorkspace/DetectorWorkspace, "
            "or mark cold-path code NOLINT(hyperear-hotpath) -- <why>"
            for _ in self.find_vector_value_decls(code)
        ]
        for m in self.HOT_RESIZE.finditer(code):
            receiver_head = re.split(r"\.|->", m.group(1))[0]
            if receiver_head in self.HOT_SANCTIONED_RECEIVERS:
                continue
            if receiver_head in arena_names or "workspace" in receiver_head:
                continue
            messages.append(
                f"{m.group(2)} on non-workspace buffer `{m.group(1)}` in a "
                "steady-state file: grow workspace-owned storage instead, "
                "or mark cold-path code NOLINT(hyperear-hotpath) -- <why>"
            )
        return messages

    @staticmethod
    def find_vector_value_decls(code: str) -> list[int]:
        """Positions of `std::vector<...>` spellings that declare a VALUE
        (local, by-value parameter, by-value return) — i.e. the template is
        followed by an identifier rather than `&`, `*`, `::`, `(` or `{`.
        Angle brackets are counted so nested template arguments parse."""
        hits: list[int] = []
        start = 0
        while True:
            at = code.find("std::vector", start)
            if at < 0:
                return hits
            i = at + len("std::vector")
            while i < len(code) and code[i].isspace():
                i += 1
            if i >= len(code) or code[i] != "<":
                start = at + 1
                continue
            depth = 0
            while i < len(code):
                if code[i] == "<":
                    depth += 1
                elif code[i] == ">":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            i += 1  # past the closing '>'
            while i < len(code) and code[i].isspace():
                i += 1
            if i < len(code) and (code[i].isalpha() or code[i] == "_"):
                hits.append(at)
            start = at + 1

    # --- driver ----------------------------------------------------------

    def run(self) -> int:
        for d in SCAN_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*")):
                if path.suffix in CXX_EXTENSIONS and path.is_file():
                    self.lint_file(path)
        self.check_lock_order()
        self.check_orphans()
        # A manifest entry that matches no scanned file is a silent hole in
        # the allocation guard (renamed file, stale path): fail loudly.
        for missing in sorted(self.hotpath_files - self.hotpath_seen):
            self.add(
                "hotpath",
                self.root / HOTPATH_MANIFEST,
                1,
                f"manifest lists `{missing}` but no such file was scanned",
            )
        for stale in sorted(THREAD_LOCAL_ALLOWED - self.thread_local_seen):
            self.add(
                "ownership",
                self.root / "tools/lint/hyperear_lint.py",
                1,
                f"THREAD_LOCAL_ALLOWED lists `{stale}` but it declares no "
                "thread_local",
            )
        # This file states its own rule patterns; it is python, not scanned.
        return 1 if self.findings else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parents[2],
        help="repo root (default: two levels above this script)",
    )
    parser.add_argument("--json", type=Path, help="write findings as JSON")
    args = parser.parse_args()

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"hyperear_lint: {root} does not look like the repo root", file=sys.stderr)
        return 2

    linter = Linter(root)
    status = linter.run()
    for f in linter.findings:
        print(f"{f['file']}:{f['line']}: [{f['rule']}] {f['message']}")
    print(
        f"hyperear_lint: {len(linter.findings)} finding(s) "
        f"({RULES_HELP})"
    )
    if args.json:
        args.json.write_text(json.dumps(linter.findings, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
