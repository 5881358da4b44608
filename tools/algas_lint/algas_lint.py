#!/usr/bin/env python3
"""algas_lint — repo-specific determinism & ownership static analysis.

The repo's enforced superpower is determinism: byte-identical graphs and
figure TSVs across thread counts, codecs and tracing. This linter defends
that property *statically*, before any simulation runs, complementing the
dynamic ProtocolChecker / byte-identity tests:

  raw-rng         rand()/srand()/std::random_device/std::mt19937 outside
                  common/rng.hpp. All randomness must flow through the
                  seeded xoshiro Rng so runs reproduce bit-for-bit.
  wall-clock      std::chrono::*_clock::now(), time(), clock_gettime()
                  outside the wall-clock allowlist (bench_walltime,
                  bench_common's trial timer, BuildReport wall timing).
                  Virtual time comes from Simulation; host clocks may
                  only feed wall-clock *reporting*, never results.
  deadline-clock  any host-clock read inside scheduler code (src/core/,
                  src/simgpu/). Deadline comparisons and arrival timing
                  must use Simulation virtual time — a wall-clock deadline
                  would make shed/evict decisions nondeterministic. Unlike
                  wall-clock this rule has NO file allowlist: scheduler
                  code never gets a pass.
  unordered-iter  iteration over a std::unordered_map/set without an
                  adjacent `// lint: ordered` justification. Hash-order
                  iteration is libc++/libstdc++-dependent and must never
                  feed graph bytes or TopK output.
  raw-getenv      std::getenv outside common/env.cpp. Every ALGAS_* knob
                  goes through RuntimeOptions::from_env().
  env-knob        env_double/env_size/env_string("ALGAS_...") outside
                  common/env.cpp: knob reads scattered across call sites
                  defeat the CLI > env > default precedence contract.
  pointer-key     containers ordered or hashed by pointer value
                  (std::map<T*,..>, std::unordered_set<T*>, std::hash<T*>).
                  Address order varies run to run; a `// lint: pointer-key`
                  justification is required (e.g. lookup-only maps).
  ownership       fields annotated ALGAS_OWNED_BY(Actors...) /
                  ALGAS_GUARDED_BY_EPOCH(Actors...) (common/ownership.hpp)
                  may only be written from member functions of a declared
                  owning actor — the static mirror of ProtocolChecker's
                  Fig 9 single-writer matrix. A write is an assignment, an
                  increment, a mutating member call, passing the field's
                  address as an argument, or a std::copy/fill through its
                  begin()/data(). ALGAS_IMMUTABLE_AFTER_PUBLISH fields may
                  only be written while the enclosing object is a
                  function-local value still under construction.

Suppressions (all require a trailing justification on the same line):
  // lint: ordered <why>         — sorted/order-insensitive use
  // lint: pointer-key <why>     — pointer-keyed container is safe
  // lint: allow(<rule>) <why>   — generic escape hatch, any rule

Usage:
  algas_lint.py [--root DIR]     lint src/ tests/ bench/ tools/ under DIR
  algas_lint.py --self-test      run the seeded-violation fixtures
  algas_lint.py --list-rules     print the rule catalogue

Exit codes: 0 clean, 1 violations found, 2 internal/usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

LINT_DIRS = ("src", "tests", "bench", "tools")
EXTS = (".cpp", ".hpp")
EXCLUDE_PARTS = ("algas_lint/fixtures",)

# Files allowed to touch each guarded facility (paths relative to root).
ALLOW = {
    "raw-rng": {"src/common/rng.hpp"},
    "wall-clock": {
        # The sanctioned wall-clock consumers: bench_walltime, the
        # repeated-trial timer in bench_common (bench::median_trial, which
        # bench_walltime, bench_shard and bench_serving time their
        # wall-clock floors with) and BuildReport's wall_build_s timing.
        # Everything else runs on Simulation virtual time.
        "bench/bench_walltime.cpp",
        "bench/bench_common.cpp",
        "src/graph/builder.cpp",
    },
    # deadline-clock deliberately has NO entries: scheduler code (src/core/,
    # src/simgpu/) must never read a host clock, and adding a file to the
    # wall-clock allowlist must not quiet this rule there.
    "deadline-clock": set(),
    "raw-getenv": {"src/common/env.cpp"},
    "env-knob": {
        "src/common/env.cpp",
        # Unit tests of the env helpers themselves (ALGAS_TEST_VAR).
        "tests/test_common.cpp",
    },
}

RULES = {
    "raw-rng": "nondeterministic RNG outside common/rng.hpp",
    "wall-clock": "host clock outside the wall-clock allowlist",
    "deadline-clock": "host clock inside scheduler code (src/core, "
                      "src/simgpu) — deadlines run on virtual time",
    "unordered-iter": "hash-order iteration without `// lint: ordered`",
    "raw-getenv": "raw std::getenv outside common/env.cpp",
    "env-knob": "ALGAS_* env read outside RuntimeOptions::from_env()",
    "pointer-key": "pointer-ordered/hashed container without justification",
    "ownership": "write to an owned field from a non-owner",
}


@dataclass
class Violation:
    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Source model: comment/string-stripped lines + suppression directives.
# --------------------------------------------------------------------------

_DIRECTIVE_RE = re.compile(
    r"//\s*lint:\s*(ordered|pointer-key|allow\(([\w-]+)\))(?:\s+(\S.*))?")


def _strip(text: str) -> str:
    """Replace comments and string/char literal contents with spaces,
    preserving line structure and string delimiters."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            seg = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                else:
                    out.append(" " if text[i] != "\n" else "\n")
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


@dataclass
class SourceFile:
    rel: str
    raw_lines: list[str]
    lines: list[str]  # comment/string-stripped, same count as raw_lines
    # line number -> set of suppressed rule names ("ordered" maps to
    # unordered-iter, "pointer-key" to pointer-key, allow(x) to x).
    suppress: dict[int, set[str]] = field(default_factory=dict)
    missing_reason: list[int] = field(default_factory=list)

    @classmethod
    def load(cls, root: str, rel: str) -> "SourceFile":
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = f.read()
        raw_lines = text.splitlines()
        lines = _strip(text).splitlines()
        while len(lines) < len(raw_lines):
            lines.append("")
        sf = cls(rel=rel, raw_lines=raw_lines, lines=lines)
        for idx, raw in enumerate(raw_lines, start=1):
            m = _DIRECTIVE_RE.search(raw)
            if not m:
                continue
            kind, allowed, reason = m.group(1), m.group(2), m.group(3)
            rule = {"ordered": "unordered-iter",
                    "pointer-key": "pointer-key"}.get(kind, allowed)
            if not reason:
                sf.missing_reason.append(idx)
            sf.suppress.setdefault(idx, set()).add(rule or "")
        return sf

    def suppressed(self, rule: str, line: int) -> bool:
        """A directive suppresses its own line and the line below it
        (directive-above-statement is the house style)."""
        for at in (line, line - 1):
            if rule in self.suppress.get(at, set()):
                return True
        return False


# --------------------------------------------------------------------------
# Simple pattern rules.
# --------------------------------------------------------------------------

_WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:steady_|system_|high_resolution_)clock::now\s*\("
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\("
    r"|(?<![\w:.>])time\s*\(\s*(?:nullptr|NULL|0)?\s*\)"
    r"|(?<![\w:.>])clock\s*\(\s*\)")

# Scheduler code: deadline/arrival decisions live here and run on virtual
# time only, so ANY host-clock read is a deadline-clock violation.
_DEADLINE_CLOCK_DIRS = ("src/core/", "src/simgpu/")

_PAT_RULES = [
    ("raw-rng", re.compile(
        r"std::random_device|\bsrand\s*\(|(?<![\w:])rand\s*\(|std::mt19937")),
    ("wall-clock", _WALL_CLOCK_RE),
    ("deadline-clock", _WALL_CLOCK_RE),
    ("raw-getenv", re.compile(r"(?:\bstd::|(?<![\w:.>]))getenv\s*\(")),
    ("pointer-key", re.compile(
        r"std::(?:unordered_)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*"
        r"|std::hash\s*<\s*[^>]*\*\s*>")),
]

# env-knob needs the raw text (string contents are blanked in stripped
# text) and must span lines: call sites often break after the paren.
_ENV_KNOB_RE = re.compile(
    r"\benv_(?:double|size|string)\s*\(\s*\"ALGAS_", re.DOTALL)


def _check_patterns(sf: SourceFile) -> list[Violation]:
    out = []
    for rule, pat in _PAT_RULES:
        if sf.rel in ALLOW.get(rule, ()):  # whole-file allowlist
            continue
        if (rule == "deadline-clock"
                and not sf.rel.startswith(_DEADLINE_CLOCK_DIRS)):
            continue
        for idx, line in enumerate(sf.lines, start=1):
            m = pat.search(line)
            if not m or sf.suppressed(rule, idx):
                continue
            out.append(Violation(rule, sf.rel, idx,
                                 f"`{m.group(0).strip()}` — {RULES[rule]}"))
    if sf.rel not in ALLOW["env-knob"]:
        raw_text = "\n".join(sf.raw_lines)
        for m in _ENV_KNOB_RE.finditer(raw_text):
            idx = raw_text.count("\n", 0, m.start()) + 1
            # Only real code: the call must survive comment stripping.
            if "env_" not in sf.lines[idx - 1]:
                continue
            if sf.suppressed("env-knob", idx):
                continue
            out.append(Violation(
                "env-knob", sf.rel, idx,
                "ALGAS_* knob read at a call site — add it to "
                "RuntimeOptions::from_env() (common/env.hpp) instead"))
    return out


# --------------------------------------------------------------------------
# unordered-iter: iteration over unordered containers.
# --------------------------------------------------------------------------

_UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{}]*?>\s*&?\s*(\w+)\s*[;={(\[),]")
_UNORDERED_INLINE_FOR_RE = re.compile(
    r"for\s*\([^;:()]*:\s*\w*\s*std::unordered_(?:map|set)\b")


def _check_unordered_iter(sf: SourceFile) -> list[Violation]:
    text = "\n".join(sf.lines)
    names = set(_UNORDERED_DECL_RE.findall(text))
    out = []
    for idx, line in enumerate(sf.lines, start=1):
        hit = None
        if _UNORDERED_INLINE_FOR_RE.search(line):
            hit = "range-for over an unordered container"
        else:
            for name in names:
                if re.search(
                        rf"for\s*\([^;:()]*:\s*\*?{re.escape(name)}\s*\)",
                        line) or re.search(
                        rf"\b{re.escape(name)}\s*\.\s*c?(?:begin|end)\s*\(",
                        line):
                    hit = f"iteration over unordered container `{name}`"
                    break
        if hit and not sf.suppressed("unordered-iter", idx):
            out.append(Violation(
                "unordered-iter", sf.rel, idx,
                f"{hit}: hash order must not feed results — sort first and "
                "justify with `// lint: ordered <why>`"))
    return out


# --------------------------------------------------------------------------
# ownership: ALGAS_OWNED_BY / ALGAS_GUARDED_BY_EPOCH /
# ALGAS_IMMUTABLE_AFTER_PUBLISH cross-check.
# --------------------------------------------------------------------------

_ANNOT_RE = re.compile(
    r"\b(\w+)\s*(?:\[[^\]]*\])?\s+"
    r"ALGAS_(OWNED_BY|GUARDED_BY_EPOCH|IMMUTABLE_AFTER_PUBLISH)"
    r"(?:\(([^)]*)\))?")

_SCOPE_HEADER_CLASS_RE = re.compile(r"\b(?:class|struct)\s+(\w+)[^;{]*$")
_SCOPE_HEADER_MEMBER_RE = re.compile(r"\b(\w+)\s*::\s*(~?\w+)\s*\(")
_SCOPE_HEADER_FUNC_RE = re.compile(r"\b(\w+)\s*\([^;]*\)[^;={]*$")
_LOCAL_DECL_RE = re.compile(
    r"^\s*(?:(?:const|constexpr|static|unsigned|signed|long|short)\s+)*"
    r"(?:\w[\w:]*)(?:\s*<[^;=]*>)?\s+(\w+)\s*(?:;|=(?!=)|\{|\()")
_CTRL_KEYWORDS = {"if", "for", "while", "switch", "return", "case", "else",
                  "do", "catch", "throw", "new", "delete", "sizeof",
                  "static_assert", "using", "typedef", "goto", "break",
                  "continue", "template", "public", "private", "protected"}

_MUTATORS = ("push_back|pop_back|pop_front|push_front|emplace|emplace_back|"
             "assign|clear|resize|reserve|insert|erase|fill|reset|swap")


@dataclass
class Annotation:
    name: str
    kind: str            # OWNED_BY | GUARDED_BY_EPOCH | IMMUTABLE_AFTER_PUBLISH
    owners: tuple[str, ...]
    decl_file: str
    decl_line: int
    decl_class: str | None


@dataclass
class _Scope:
    kind: str                 # class | func | other
    name: str | None = None   # class name / function's class
    locals: set[str] = field(default_factory=set)


class _CppWalker:
    """Line/brace-based scope tracker tuned for this repo's clang-format
    style: tracks the enclosing class, the enclosing member function's
    class, and function-local value declarations."""

    def __init__(self, sf: SourceFile):
        self.sf = sf
        self.stack: list[_Scope] = []
        self.header = ""  # text since last ; { or } outside any string

    def enclosing_class(self) -> str | None:
        for sc in reversed(self.stack):
            if sc.kind == "class":
                return sc.name
        return None

    def enclosing_func_class(self) -> str | None:
        """Class owning the innermost member function, '' for free funcs,
        None when not inside any function."""
        for sc in reversed(self.stack):
            if sc.kind == "func":
                return sc.name
        return None

    def func_scope(self) -> _Scope | None:
        for sc in reversed(self.stack):
            if sc.kind == "func":
                return sc
        return None

    def is_local_value(self, ident: str) -> bool:
        fn = self.func_scope()
        return fn is not None and ident in fn.locals

    def _open_scope(self):
        h = self.header.strip()
        m = _SCOPE_HEADER_CLASS_RE.search(h)
        if m and "=" not in h:
            self.stack.append(_Scope("class", m.group(1)))
            return
        m = _SCOPE_HEADER_MEMBER_RE.search(h)
        if m and not h.endswith("="):
            self.stack.append(_Scope("func", m.group(1)))
            return
        in_class = self.enclosing_class()
        in_func = self.enclosing_func_class()
        m = _SCOPE_HEADER_FUNC_RE.search(h)
        if m and in_func is None and m.group(1) not in _CTRL_KEYWORDS:
            # Function definition: member of the enclosing class, or free.
            self.stack.append(_Scope("func", in_class or ""))
            return
        # Plain block / lambda / initializer: inherit context.
        self.stack.append(_Scope("other"))

    def feed_line(self, line: str, probes=None):
        """Advance scope state over one stripped line. `probes` is a list of
        (column, callback) pairs; each callback fires when the walk reaches
        its column, so it observes the scope state AT that position — this
        is what attributes a write inside a one-line member function
        (`void set(T t) { field_ = t; }`) to that member, not to the
        surrounding class."""
        fn = self.func_scope()
        if fn is not None:
            m = _LOCAL_DECL_RE.match(line)
            if m:
                head = line[:m.start(1)]
                kw = head.strip().split("<")[0].split()[0] if head.strip() else ""
                if (kw not in _CTRL_KEYWORDS and "&" not in head
                        and "*" not in head and "return" not in head):
                    fn.locals.add(m.group(1))
                    # Multi-declarator line: `size_t a = 0, b = 0, dim = 0;`
                    # declares b and dim too. Blank bracketed regions first
                    # so call arguments don't look like declarators.
                    tail = line[m.end(1):]
                    prev = None
                    while prev != tail:
                        prev = tail
                        tail = re.sub(r"\([^()]*\)|\{[^{}]*\}|<[^<>]*>",
                                      "", tail)
                    for part in tail.split(",")[1:]:
                        pm = re.match(r"\s*(\w+)\s*(?:=(?!=)|;|$)", part)
                        if pm:
                            fn.locals.add(pm.group(1))
        probes = sorted(probes or [], key=lambda p: p[0])
        pi = 0
        for i, ch in enumerate(line):
            while pi < len(probes) and probes[pi][0] <= i:
                probes[pi][1]()
                pi += 1
            if ch == "{":
                self._open_scope()
                self.header = ""
            elif ch == "}":
                if self.stack:
                    self.stack.pop()
                self.header = ""
            elif ch == ";":
                self.header = ""
            else:
                self.header += ch
        while pi < len(probes):
            probes[pi][1]()
            pi += 1


def _collect_annotations(files: list[SourceFile]) -> list[Annotation]:
    out = []
    for sf in files:
        walker = _CppWalker(sf)
        for idx, line in enumerate(sf.lines, start=1):
            probes = []
            # clang-format may wrap a long owner list onto continuation
            # lines; join them so the owners group parses completely. The
            # continuation lines themselves never re-match (no macro name).
            text = line
            if re.search(r"ALGAS_(?:OWNED_BY|GUARDED_BY_EPOCH)\s*\([^)]*$",
                         text):
                j = idx  # sf.lines is 0-based: sf.lines[idx] is the next line
                while j < len(sf.lines):
                    text += " " + sf.lines[j].strip()
                    if ")" in sf.lines[j]:
                        break
                    j += 1
            for m in _ANNOT_RE.finditer(text):
                def record(m=m, idx=idx):
                    owners = tuple(
                        o.strip() for o in (m.group(3) or "").split(",")
                        if o.strip())
                    out.append(Annotation(
                        name=m.group(1), kind=m.group(2), owners=owners,
                        decl_file=sf.rel, decl_line=idx,
                        decl_class=walker.enclosing_class()))
                probes.append((m.start(), record))
            walker.feed_line(line, probes)
    return out


def _include_closure(root: str, files: list[SourceFile]) -> dict[str, set[str]]:
    """rel path -> set of repo-relative headers transitively included."""
    inc_re = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
    direct: dict[str, set[str]] = {}
    by_rel = {sf.rel for sf in files}
    # Headers are included relative to src/ (target include dir) or the
    # including file's directory.
    for sf in files:
        deps = set()
        for raw in sf.raw_lines:
            m = inc_re.match(raw)
            if not m:
                continue
            inc = m.group(1)
            for cand in (os.path.join("src", inc),
                         os.path.normpath(
                             os.path.join(os.path.dirname(sf.rel), inc)),
                         inc):
                if cand in by_rel:
                    deps.add(cand)
                    break
        direct[sf.rel] = deps
    closure: dict[str, set[str]] = {}

    def visit(rel: str, seen: set[str]):
        if rel in closure:
            return closure[rel]
        seen.add(rel)
        acc = set(direct.get(rel, ()))
        for dep in list(acc):
            if dep not in seen:
                acc |= visit(dep, seen)
        closure[rel] = acc
        return acc

    for sf in files:
        visit(sf.rel, set())
    return closure


def _write_patterns(name: str) -> list[re.Pattern]:
    # The (?<!\w) guard keeps `entries` from matching inside
    # `candidate_entries`: after the receiver chain the char before the
    # field name is `.`/`>` (fine) or, with no receiver, must be a
    # non-identifier char.
    n = re.escape(name)
    recv = r"(?P<recv>(?:\w+(?:\.|->))*)"
    return [
        # receiver.name = / name op= ...  (captures the receiver chain)
        re.compile(
            rf"{recv}(?<!\w){n}\b\s*(?:\[[^\]]*\])?\s*"
            rf"(?:=(?!=)|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=)(?!=)"),
        re.compile(rf"(?:\+\+|--)\s*{recv}(?<!\w){n}\b"),
        re.compile(rf"{recv}(?<!\w){n}\b\s*(?:\+\+|--)"),
        re.compile(rf"{recv}(?<!\w){n}\b\s*\.\s*(?:{_MUTATORS})\s*\("),
        # Handing out the field's address as an argument grants the callee
        # write access: `search.reset(query, entry, &visited_)`.
        re.compile(rf"[(,]\s*&\s*{recv}(?<!\w){n}\b(?!\s*(?:\.|->|\[))"),
        # A standard algorithm writing through the field's iterators:
        # `std::copy(a, b, results_.begin() + c * len)`.
        re.compile(rf"\bstd::(?:ranges::)?(?:copy|copy_n|move|fill|fill_n)"
                   rf"\s*\(.*?{recv}(?<!\w){n}\b\s*\.\s*"
                   rf"(?:begin|data)\s*\("),
    ]


def _check_ownership(files: list[SourceFile],
                     annots: list[Annotation],
                     closure: dict[str, set[str]]) -> list[Violation]:
    out = []
    compiled = [(a, _write_patterns(a.name)) for a in annots]
    for sf in files:
        relevant = [
            (a, pats) for a, pats in compiled
            if a.decl_file == sf.rel or a.decl_file in closure.get(sf.rel, ())]
        if not relevant:
            continue
        walker = _CppWalker(sf)
        for idx, line in enumerate(sf.lines, start=1):
            probes = []
            for a, pats in relevant:
                if a.decl_file == sf.rel and a.decl_line == idx:
                    continue  # the annotated declaration itself
                hit = None
                for pat in pats:
                    m = pat.search(line)
                    if m:
                        hit = m
                        break
                if not hit:
                    continue

                def check(a=a, hit=hit, idx=idx):
                    recv = hit.groupdict().get("recv") or ""
                    base = re.match(r"\w+", recv)
                    base_ident = base.group(0) if base else None
                    # A write into a function-local value is construction of
                    # a not-yet-published object, not a shared-state write.
                    if base_ident and walker.is_local_value(base_ident):
                        return
                    # Bare-name write to a function-local that merely shares
                    # the annotated field's name.
                    if base_ident is None and walker.is_local_value(a.name):
                        return
                    writer = walker.enclosing_func_class()
                    if a.kind == "IMMUTABLE_AFTER_PUBLISH":
                        allowed = writer is not None and writer == a.decl_class
                    else:
                        allowed = writer is not None and writer in a.owners
                    if allowed or sf.suppressed("ownership", idx):
                        return
                    where = (f"member function of `{writer}`" if writer
                             else "free function or namespace scope")
                    if a.kind == "IMMUTABLE_AFTER_PUBLISH":
                        expect = ("only function-local construction may "
                                  "write it (ALGAS_IMMUTABLE_AFTER_PUBLISH)")
                    else:
                        expect = ("owned by " + ", ".join(
                            f"`{o}`" for o in a.owners) +
                            f" (ALGAS_{a.kind})")
                    out.append(Violation(
                        "ownership", sf.rel, idx,
                        f"write to `{a.name}` "
                        f"({a.decl_file}:{a.decl_line}) from {where}; "
                        f"{expect}"))
                probes.append((hit.start(), check))
            walker.feed_line(line, probes)
    return out


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

def _gather(root: str, dirs=LINT_DIRS) -> list[str]:
    rels = []
    for d in dirs:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, _dirnames, filenames in os.walk(top):
            for fn in sorted(filenames):
                if not fn.endswith(EXTS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, fn), root)
                rel = rel.replace(os.sep, "/")
                if any(part in rel for part in EXCLUDE_PARTS):
                    continue
                rels.append(rel)
    return sorted(rels)


def lint_files(root: str, rels: list[str]) -> list[Violation]:
    files = [SourceFile.load(root, rel) for rel in rels]
    violations: list[Violation] = []
    for sf in files:
        for idx in sf.missing_reason:
            violations.append(Violation(
                "ownership", sf.rel, idx,
                "lint directive without a justification — write "
                "`// lint: <kind> <why>`"))
        violations += _check_patterns(sf)
        violations += _check_unordered_iter(sf)
    annots = _collect_annotations(files)
    closure = _include_closure(root, files)
    violations += _check_ownership(files, annots, closure)
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def self_test(fixture_dir: str) -> int:
    """Each fixture declares `// expect-lint: rule-a rule-b` (or `none`) on
    its first line; the fixture must trip exactly those rules."""
    expect_re = re.compile(r"//\s*expect-lint:\s*(.+)")
    failures = 0
    # Walk, don't listdir: path-scoped rules (deadline-clock) need fixtures
    # that live at the guarded path, e.g. fixtures/src/core/<name>.cpp.
    names = []
    for dirpath, _dirnames, filenames in os.walk(fixture_dir):
        for fn in filenames:
            if fn.endswith(EXTS):
                rel = os.path.relpath(os.path.join(dirpath, fn), fixture_dir)
                names.append(rel.replace(os.sep, "/"))
    names.sort()
    if not names:
        print(f"algas_lint: no fixtures in {fixture_dir}", file=sys.stderr)
        return 2
    for fn in names:
        path = os.path.join(fixture_dir, fn)
        with open(path, encoding="utf-8") as f:
            first = f.readline()
        m = expect_re.search(first)
        if not m:
            print(f"FAIL {fn}: missing `// expect-lint:` header")
            failures += 1
            continue
        expected = set(m.group(1).split())
        expected.discard("none")
        got_v = lint_files(fixture_dir, [fn])
        got = {v.rule for v in got_v}
        if got == expected:
            print(f"ok   {fn}: {sorted(expected) or ['clean']}")
        else:
            failures += 1
            print(f"FAIL {fn}: expected {sorted(expected)}, got {sorted(got)}")
            for v in got_v:
                print(f"     {v}")
    if failures:
        print(f"algas_lint self-test: {failures}/{len(names)} fixtures FAILED")
        return 1
    print(f"algas_lint self-test: {len(names)} fixtures ok")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="algas_lint", add_help=True)
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this script)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the seeded-violation fixtures")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:15} {desc}")
        return 0
    if args.self_test:
        return self_test(os.path.join(here, "fixtures"))

    root = os.path.abspath(args.root or os.path.join(here, "..", ".."))
    rels = _gather(root)
    if not rels:
        print(f"algas_lint: nothing to lint under {root}", file=sys.stderr)
        return 2
    violations = lint_files(root, rels)
    for v in violations:
        print(v)
    n = len(violations)
    print(f"algas_lint: {len(rels)} files, "
          f"{n} violation{'s' if n != 1 else ''}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
