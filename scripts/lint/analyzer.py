#!/usr/bin/env python3
"""fairbfl-analyzer: the project's one lint driver.

Dependency-free whole-program static analysis on the cpplex.py lexer.  It
lexes every file once, extracts per-file facts (cached by content sha),
builds the project-wide include graph and a cross-TU symbol/call graph
from compile_commands.json (declaration->definition resolution:
qualified-name matching first, then header-signature matching; unresolved
edges are reported, never silently dropped), and proves the repo's
conventions on top of it:

  raw-sync              no std::mutex/std::thread/std::lock_guard/... (or
                        their headers) outside src/support/: locks go
                        through the annotated support::Mutex wrappers.
  rng-determinism       no rand()/srand(), std::random_device or argless
                        std engines: randomness derives from the seed.
  catch-swallow         no `catch (...)` that neither rethrows nor
                        captures std::current_exception.
  simd-isolation        no x86 intrinsic headers or _mm*/__m* spellings
                        outside src/support/simd* (the KernelTable layer).
  telemetry-hotpath     no allocation, lock, ad-hoc clock read or throw
                        reachable from the telemetry emission roots; the
                        walk follows resolved call edges into every TU and
                        stops at the allowlisted stop_functions.
  layer-deps            #include edges point strictly downward through
                        scripts/lint/layers.json (the normative layer map).
  fp-determinism        no floating-point multiply-accumulate loop outside
                        the kernel layer, and every TU compiles with
                        -ffp-contract=off and no value-unsafe math flag.
  lock-order            the global acquires-while-holding graph (MutexLock
                        sites, REQUIRES(), transitive via calls) has no
                        cycle and matches the documented lock hierarchy.
  blocking-in-worker    no sleep/condvar wait/join/spawn/file or socket IO
                        reachable from a ThreadPool task body outside the
                        pool's own scheduler_paths.
  unused-include        IWYU-lite: an included project header provides no
                        name the includer references.  Report-only unless
                        --strict.

Every rule reads its allowlist from scripts/lint/allowlists.json; an
entry that matches no file or suppresses nothing is itself a finding.

Usage:
  analyzer.py --build-dir build            # analyze the tree; exit 1 on
                                           # findings from enforcing rules
  analyzer.py --rule layer-deps            # restrict to one rule
                                           # (repeatable)
  analyzer.py --self-test                  # per-rule bad*/clean* fixture
                                           # trees (tests/analyzer_fixtures);
                                           # --rule restricts it too
  analyzer.py --graph-dump graph.json      # dump include edges, call
                                           # edges, unresolved calls,
                                           # locks, pool-task roots
  analyzer.py --explain lock-order:mutex   # where a symbol stands in a
                                           # rule's graph and why
  analyzer.py --strict                     # unused-include becomes
                                           # enforcing
  analyzer.py --summary-md out.md          # per-rule markdown table +
                                           # runtime (CI job summary)

Diagnostics are gcc-style `file:line:col: error: [rule] message` so
editors and CI annotate them.  Per-file facts are cached in
<build-dir>/analyzer_cache.json keyed on content sha256 + extractor
version (FACTS_VERSION), so warm full-tree runs re-lex nothing and stay
well inside the 5 s CI budget.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cpplex  # noqa: E402
from cpplex import IDENT, NUMBER, PP, PUNCT, STRING  # noqa: E402

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
ALLOWLIST_REL = "scripts/lint/allowlists.json"

RULES = ("raw-sync", "rng-determinism", "catch-swallow", "simd-isolation",
         "telemetry-hotpath", "layer-deps", "fp-determinism", "lock-order",
         "blocking-in-worker", "unused-include")

# Bump whenever extraction below changes shape or semantics: stale caches
# are discarded wholesale, never migrated.
FACTS_VERSION = 7


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: error: "
                f"[{self.rule}] {self.message}")


def _find_matching(tokens, start, open_, close):
    """Index of the token closing the bracket opened at `start` (which
    must hold `open_`); len(tokens) if unbalanced."""
    depth = 0
    for k in range(start, len(tokens)):
        v = tokens[k].value
        if tokens[k].kind == PUNCT:
            if v == open_:
                depth += 1
            elif v == close:
                depth -= 1
                if depth == 0:
                    return k
    return len(tokens)


# ---------------------------------------------------------------------------
# Shared vocabularies

# Identifier-followed-by-'(' shapes that are control flow or specifiers,
# not calls or function names.
_STOPWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "alignas", "decltype", "static_assert", "new", "delete", "throw",
    "noexcept", "assert", "operator", "defined", "constexpr", "consteval",
    "constinit", "requires", "explicit",
}

# The telemetry emission entry points (src/telemetry/telemetry.{hpp,cpp}):
# the Span constructor/close pair and the counter emitters, plus the
# helpers the hot path is composed of (kept explicit so a rename breaks
# the lint rather than silently un-scoping the rule).
_HOTPATH_ROOTS = {"Span", "close", "counter_add", "counter_max", "put",
                  "make_record", "local_buffer", "next_span_id",
                  "current_context"}

_HOTPATH_FORBIDDEN_CALLS = {
    "malloc", "calloc", "realloc", "aligned_alloc", "strdup",
    "push_back", "emplace", "emplace_back", "insert", "resize", "reserve",
    "append", "assign",
    "MutexLock", "lock_guard", "unique_lock", "scoped_lock", "lock",
    "Lock", "try_lock", "TryLock", "wait",
    "now",
}

# Blocking call names for blocking-in-worker.  Mutex acquisition is
# deliberately absent (workers may take leaf locks); this targets sleeps,
# condvar waits, joins, process spawns, and file/socket IO.
_BLOCKING_CALLS = {
    "sleep_for", "sleep_until", "sleep", "usleep", "nanosleep",
    "wait", "wait_for", "wait_until", "join",
    "system", "popen", "fork", "execv", "execvp",
    "fopen", "fread", "fwrite", "fgets", "fscanf", "getline",
    "accept", "recv", "recvfrom", "send", "sendto", "connect", "listen",
    "select", "poll", "epoll_wait",
}

# Stream types whose mere construction opens a file: flagged token-level
# because `std::ofstream f(path)` lexes as a declaration, not a call.
_BLOCKING_TYPES = {"ifstream", "ofstream", "fstream"}

# Names assumed external (std/libc) when no project definition exists, so
# they don't pollute the unresolved-edge report.  Consulted only after
# definition lookup fails, so a project function may shadow any of these.
_EXTERNAL_NAMES = {
    "abs", "fabs", "sqrt", "exp", "log", "log2", "pow", "floor", "ceil",
    "round", "lround", "fmod", "isnan", "isinf", "isfinite", "memcpy",
    "memset", "memcmp", "memmove", "strcmp", "strncmp", "strlen", "snprintf",
    "printf", "fprintf", "sprintf", "fputs", "puts", "fflush", "exit",
    "getenv", "strtol", "strtod", "atoi", "min", "max", "swap", "move",
    "forward", "make_unique", "make_shared", "make_pair", "make_tuple",
    "to_string", "stoi", "stod", "stoul", "stoull", "sort", "stable_sort",
    "nth_element", "partial_sort", "fill", "copy", "copy_n", "transform",
    "accumulate", "iota", "distance", "advance", "next", "prev",
    "lower_bound", "upper_bound", "binary_search", "unique", "remove",
    "remove_if", "find_if", "any_of", "all_of", "none_of", "count_if",
    "max_element", "min_element", "minmax_element", "shuffle", "clamp",
    "hash", "tie", "get_if", "holds_alternative", "visit", "declval",
    "tuple_size", "from_chars", "to_chars", "isalpha", "isdigit", "isspace",
    "tolower", "toupper", "assert", "abort", "terminate", "setw",
    "setprecision", "quoted", "flush", "endl", "getline", "push", "pop",
    "top", "emplace_hint", "substr", "compare", "rfind", "find_first_of",
    "find_last_of", "starts_with", "ends_with", "c_str", "str", "good",
    "fail", "eof", "is_open", "open", "close", "rdbuf", "seekg", "tellg",
    "write", "read", "at", "notify_one", "notify_all", "test_and_set",
    "time_since_epoch", "duration_cast", "nanoseconds", "microseconds",
    "milliseconds", "seconds", "thread", "numeric_limits", "lowest",
    "epsilon", "infinity", "quiet_NaN", "signaling_NaN", "denorm_min",
    "now",
}

# Member names of std vocabulary types (atomics, containers, optionals)
# that never resolve to same-named project functions when building call
# edges: `g_enabled.load(...)` is std::atomic::load, not Dump::load, and
# `factories_.contains(name)` is std::map::contains.  Forbidden-call
# detection is unaffected (it matches call sites directly, so `.lock()`
# still trips telemetry-hotpath).
_EDGE_IGNORED = {
    "load", "store", "exchange", "compare_exchange_strong",
    "compare_exchange_weak", "fetch_add", "fetch_sub", "find", "count",
    "begin", "end", "size", "empty", "clear", "erase", "get", "reset",
    "release", "data", "max", "min", "value_or", "has_value", "front",
    "back", "contains",
}

# Type/specifier keywords that must not be recorded as declared names.
_NOT_DECL_NAMES = {
    "int", "long", "short", "unsigned", "signed", "char", "double",
    "float", "bool", "void", "auto", "const", "constexpr", "consteval",
    "constinit", "static", "inline", "extern", "mutable", "volatile",
    "virtual", "explicit", "noexcept", "override", "final", "public",
    "private", "protected", "operator", "typename", "template", "class",
    "struct", "enum", "union", "friend", "using", "namespace", "typedef",
    "register", "thread_local", "wchar_t", "char8_t", "char16_t",
    "char32_t", "size_t", "this", "requires", "concept", "default",
}

# Tokens a `double`/`float` declarator may carry between the type keyword
# and the declared identifier.
_FP_DECL_SKIP = {"const", "&", "&&", "*", ">", ">>", "...",
                 "volatile", "restrict"}

_ALLCAPS_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")
_PP_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# ---------------------------------------------------------------------------
# Token-pattern rules: each maps one file's tokens to [line, col, message]
# hits.  They run inside extract_facts, so their hits are cached with the
# other facts; exempt_paths applies when the rule runs.

_RAW_SYNC_TYPES = {
    "std::mutex", "std::timed_mutex", "std::recursive_mutex",
    "std::recursive_timed_mutex", "std::shared_mutex",
    "std::shared_timed_mutex", "std::thread", "std::jthread",
    "std::lock_guard", "std::unique_lock", "std::scoped_lock",
    "std::shared_lock", "std::condition_variable",
    "std::condition_variable_any", "std::call_once", "std::once_flag",
    "std::async",
}
_RAW_SYNC_HEADERS = {"<mutex>", "<thread>", "<shared_mutex>",
                     "<condition_variable>", "<future>"}

_RNG_ENGINES = {"std::mt19937", "std::mt19937_64", "std::minstd_rand",
                "std::minstd_rand0", "std::default_random_engine",
                "std::ranlux24", "std::ranlux48", "std::knuth_b"}

_RETHROW_MARKERS = {"throw", "current_exception", "rethrow_exception",
                    "rethrow_if_nested"}

# x86 intrinsic headers (umbrella and per-ISA): none may appear outside
# the dispatch layer.
_SIMD_HEADERS = {
    "<immintrin.h>", "<x86intrin.h>", "<x86gprintrin.h>", "<xmmintrin.h>",
    "<emmintrin.h>", "<pmmintrin.h>", "<tmmintrin.h>", "<smmintrin.h>",
    "<nmmintrin.h>", "<wmmintrin.h>", "<ammintrin.h>",
}
_SIMD_IDENT_PREFIXES = ("_mm_", "_mm256_", "_mm512_", "__m128", "__m256",
                        "__m512")


# Last component -> qualified name (all distinct), so each identifier
# costs one dict lookup.
_RAW_SYNC_BY_LAST = {n.rsplit("::", 1)[1]: n for n in _RAW_SYNC_TYPES}
_RNG_BY_LAST = {n.rsplit("::", 1)[1]: n for n in _RNG_ENGINES}


def _included_header(t):
    return t.value.split("#include", 1)[1].strip() \
        if t.kind == PP and t.value.startswith("#include") else None


def _match_raw_sync(tokens):
    out = []
    for k, t in enumerate(tokens):
        header = _included_header(t)
        if header in _RAW_SYNC_HEADERS:
            out.append([t.line, t.col,
                        f"raw concurrency header {header}: use "
                        "support/sync.hpp (annotated Mutex/MutexLock/"
                        "CondVar) or support/parallel.hpp instead"])
        elif t.kind == IDENT and t.value in _RAW_SYNC_BY_LAST and \
                cpplex.match_qualified(tokens, k, _RAW_SYNC_BY_LAST[t.value]):
            out.append([t.line, t.col,
                        f"{_RAW_SYNC_BY_LAST[t.value]} outside src/support/: "
                        "the analysis cannot see std primitives -- use the "
                        "annotated support::Mutex/MutexLock/CondVar "
                        "(support/sync.hpp) or support::ThreadPool"])
    return out


def _argless_construction(tokens, k):
    """`std::mt19937 g;`, `std::mt19937()`, `std::mt19937{}`: the default
    seed is a process-invariant constant, which silently decouples the
    stream from the experiment seed.  Seeded forms pass."""
    nxt, after, third = (tokens[j] if j < len(tokens) else None
                         for j in (k + 1, k + 2, k + 3))
    if nxt is not None and nxt.kind == IDENT:
        return after is not None and (
            after.value in (";", ",", ")") or
            (after.value == "(" and third is not None
             and third.value == ")") or
            (after.value == "{" and third is not None
             and third.value == "}"))
    if nxt is not None and nxt.value in ("(", "{"):
        close = ")" if nxt.value == "(" else "}"
        return after is not None and after.value == close
    return False


def _match_rng_determinism(tokens):
    out = []
    for k, t in enumerate(tokens):
        if t.kind != IDENT:
            continue
        if t.value in ("rand", "srand") and k + 1 < len(tokens) \
                and tokens[k + 1].value == "(" \
                and (k == 0 or tokens[k - 1].value not in ("::", ".", "->")
                     or cpplex.match_qualified(tokens, k, "std::" + t.value)):
            out.append([t.line, t.col,
                        f"{t.value}() breaks seed determinism: draw from a "
                        "support::Rng stream forked off the experiment seed"])
        elif t.value == "random_device" and \
                cpplex.match_qualified(tokens, k, "std::random_device"):
            out.append([t.line, t.col,
                        "std::random_device is non-deterministic by design: "
                        "seed a support::Rng from the experiment config "
                        "instead"])
        elif t.value in _RNG_BY_LAST and \
                cpplex.match_qualified(tokens, k, _RNG_BY_LAST[t.value]) and \
                _argless_construction(tokens, k):
            out.append([t.line, t.col,
                        "argless std engine construction uses the fixed "
                        "default seed: derive the stream from the "
                        "experiment seed via support::Rng"])
    return out


def _match_catch_swallow(tokens):
    out = []
    k = 0
    while k < len(tokens):
        t = tokens[k]
        if t.kind == IDENT and t.value == "catch" and k + 1 < len(tokens) \
                and tokens[k + 1].value == "(":
            close = _find_matching(tokens, k + 1, "(", ")")
            is_catch_all = any(p.kind == PUNCT and p.value == "..."
                               for p in tokens[k + 2:close])
            body_open = close + 1
            if is_catch_all and body_open < len(tokens) \
                    and tokens[body_open].value == "{":
                body_close = _find_matching(tokens, body_open, "{", "}")
                if not any(b.kind == IDENT and b.value in _RETHROW_MARKERS
                           for b in tokens[body_open + 1:body_close]):
                    out.append([t.line, t.col,
                                "catch (...) swallows the exception: rethrow "
                                "(`throw;`), capture it via "
                                "std::current_exception for a later rethrow, "
                                "or narrow the handler to the types you can "
                                "actually handle"])
                k = body_open
                continue
        k += 1
    return out


def _match_simd_isolation(tokens):
    out = []
    for t in tokens:
        header = _included_header(t)
        if header in _SIMD_HEADERS:
            out.append([t.line, t.col,
                        f"x86 intrinsic header {header} outside "
                        "src/support/simd*: ISA-specific code lives "
                        "behind the runtime-dispatched KernelTable "
                        "(support/simd.hpp) so every other TU stays "
                        "portable and the scalar bit-pins stay the "
                        "default"])
        elif t.kind == IDENT and t.value.startswith(_SIMD_IDENT_PREFIXES):
            out.append([t.line, t.col,
                        f"x86 intrinsic `{t.value}` outside "
                        "src/support/simd*: add the kernel to the "
                        "KernelTable (support/simd.hpp) instead of "
                        "open-coding ISA instructions here"])
    return out


_TOKEN_RULES = {
    "raw-sync": _match_raw_sync,
    "rng-determinism": _match_rng_determinism,
    "catch-swallow": _match_catch_swallow,
    "simd-isolation": _match_simd_isolation,
}


# ---------------------------------------------------------------------------
# Per-file fact extraction (pure: tokens in, JSON-safe dict out)

def _loop_mask(body):
    """Boolean mask over `body` marking tokens inside for/while/do bodies."""
    n = len(body)
    mask = [False] * n
    k = 0
    while k < n:
        t = body[k]
        if t.kind == IDENT and t.value in ("for", "while") and k + 1 < n \
                and body[k + 1].value == "(":
            close = _find_matching(body, k + 1, "(", ")")
            b = close + 1
            if b < n and body[b].value == "{":
                e = _find_matching(body, b, "{", "}")
            else:
                e = b
                while e < n and body[e].value != ";":
                    if body[e].value == "{":
                        e = _find_matching(body, e, "{", "}")
                    elif body[e].value == "(":
                        e = _find_matching(body, e, "(", ")")
                    e += 1
            for i in range(b, min(e + 1, n)):
                mask[i] = True
            k = close + 1
            continue
        if t.kind == IDENT and t.value == "do" and k + 1 < n \
                and body[k + 1].value == "{":
            e = _find_matching(body, k + 1, "{", "}")
            for i in range(k + 1, min(e + 1, n)):
                mask[i] = True
            k += 2
            continue
        k += 1
    return mask


def _match_mac(body, k):
    """Multiply-accumulate matcher at a `+=`/`-=` token: returns the
    identifier set of the statement if the right-hand side has a
    top-level `*` (the FMA-eligible shape), else None."""
    idents = set()
    i = k - 1  # walk the lvalue leftwards
    while i >= 0:
        t = body[i]
        if t.kind == PUNCT and t.value == "]":
            depth = 0
            while i >= 0:
                if body[i].value == "]":
                    depth += 1
                elif body[i].value == "[":
                    depth -= 1
                    if depth == 0:
                        break
                if body[i].kind == IDENT:
                    idents.add(body[i].value)
                i -= 1
            i -= 1
            continue
        if t.kind == IDENT:
            idents.add(t.value)
            if i - 1 >= 0 and body[i - 1].value in (".", "->", "::"):
                i -= 2
                continue
            break
        break
    top_mul = False
    fp_literal = False
    pd = bd = 0
    j = k + 1
    n = len(body)
    while j < n:
        t = body[j]
        v = t.value
        if t.kind == PUNCT:
            if v == "(":
                pd += 1
            elif v == ")":
                pd -= 1
                if pd < 0:
                    break
            elif v == "[":
                bd += 1
            elif v == "]":
                bd -= 1
            elif pd == 0 and bd == 0:
                if v in (";", ",", "{", "}"):
                    break
                if v == "*":
                    prev = body[j - 1]
                    if prev.kind in (IDENT, NUMBER) or \
                            prev.value in (")", "]"):
                        top_mul = True
        elif t.kind == IDENT:
            idents.add(v)
        elif t.kind == NUMBER:
            low = v.lower()
            if not low.startswith("0x") and \
                    ("." in low or "e" in low or low.endswith("f")):
                fp_literal = True
        j += 1
    if not top_mul:
        return None
    return {"line": body[k].line, "col": body[k].col,
            "idents": sorted(idents), "fp_literal": fp_literal}


def _analyze_body(body, requires):
    """One pass over a function body: calls, new/throw sites, MutexLock
    acquisitions with a scope-tracked lock stack (acquires-while-holding
    and calls-while-holding), MAC loops, blocking stream types."""
    res = {"calls": [], "news": [], "acquires": [], "held": [],
           "held_calls": [], "macs": [], "blocking_tokens": []}
    mask = _loop_mask(body)
    lockstack = [(r, -1) for r in requires]
    depth = 0
    n = len(body)
    k = 0
    while k < n:
        t = body[k]
        if t.kind == PUNCT:
            if t.value == "{":
                depth += 1
            elif t.value == "}":
                depth -= 1
                while lockstack and lockstack[-1][1] > depth:
                    lockstack.pop()
            elif t.value in ("+=", "-=") and mask[k]:
                mac = _match_mac(body, k)
                if mac is not None:
                    res["macs"].append(mac)
            k += 1
            continue
        if t.kind != IDENT:
            k += 1
            continue
        if t.value in ("new", "throw"):
            res["news"].append([t.line, t.col, t.value])
            k += 1
            continue
        if t.value in _BLOCKING_TYPES:
            res["blocking_tokens"].append([t.line, t.col, t.value])
            k += 1
            continue
        if t.value == "MutexLock" and k + 1 < n \
                and body[k + 1].kind == IDENT and k + 2 < n \
                and body[k + 2].value == "(":
            close = _find_matching(body, k + 2, "(", ")")
            lockname = None
            for g in reversed(body[k + 3:close]):
                if g.kind == IDENT:
                    lockname = g.value
                    break
            if lockname:
                # At the declarator, where the hot-path diagnostic points.
                var = body[k + 1]
                res["acquires"].append([var.line, var.col, lockname])
                for holder, _d in lockstack:
                    res["held"].append([holder, t.line, t.col, lockname])
                lockstack.append((lockname, depth))
            k = close + 1
            continue
        if t.value not in _STOPWORDS and k + 1 < n \
                and body[k + 1].value == "(":
            qname = cpplex.qualified_at(body, k)
            first = k - 2 * (len(qname.split("::")) - 1)
            member = first > 0 and body[first - 1].value in (".", "->")
            res["calls"].append([t.line, t.col, t.value, qname,
                                 1 if member else 0])
            for holder, _d in lockstack:
                res["held_calls"].append([holder, t.line, t.col, t.value])
        k += 1
    return res


def _extract_functions(tokens):
    """Heuristic function-definition extractor: every `name(...) ... {body}`
    shape, including inline class methods.  The gap between `)` and `{`
    (specifiers, ctor init lists, trailing return types) is scanned so
    REQUIRES() annotations seed the lock stack; a top-level `;` or `=`
    there disqualifies (declaration, `= default`).  Yields fact dicts."""
    k = 0
    n = len(tokens)
    while k < n:
        t = tokens[k]
        if t.kind == IDENT and t.value not in _STOPWORDS and k + 1 < n \
                and tokens[k + 1].value == "(":
            qname = cpplex.qualified_at(tokens, k)
            close = _find_matching(tokens, k + 1, "(", ")")
            j = close + 1
            is_definition = True
            requires = []
            while j < n:
                v = tokens[j].value
                if v == "{":
                    break
                if tokens[j].kind == PUNCT and v in (";", "="):
                    is_definition = False
                    break
                if tokens[j].kind == IDENT and v == "REQUIRES" \
                        and j + 1 < n and tokens[j + 1].value == "(":
                    gend = _find_matching(tokens, j + 1, "(", ")")
                    for g in tokens[j + 2:gend]:
                        if g.kind == IDENT and g.value != "this":
                            requires.append(g.value)
                    j = gend + 1
                    continue
                if tokens[j].kind == PUNCT and v == "(":
                    j = _find_matching(tokens, j, "(", ")") + 1
                    continue
                j += 1
            if is_definition and j < n and tokens[j].value == "{":
                body_close = _find_matching(tokens, j, "{", "}")
                body = tokens[j + 1:body_close]
                fn = {"name": qname.rsplit("::", 1)[-1], "qname": qname,
                      "line": t.line, "col": t.col, "requires": requires}
                fn.update(_analyze_body(body, requires))
                yield fn
                k = j + 1
                continue
        k += 1


def _extract_pool_tasks(tokens):
    """Lambda literals passed to parallel_for/parallel_chunks or to a
    `.run(`/`->run(` member whose receiver names a pool: the ThreadPool
    task bodies that blocking-in-worker roots its walk at."""
    out = []
    n = len(tokens)
    for k in range(n - 1):
        t = tokens[k]
        if t.kind != IDENT or tokens[k + 1].value != "(":
            continue
        if t.value in ("parallel_for", "parallel_chunks"):
            pass
        elif t.value == "run" and k >= 2 \
                and tokens[k - 1].value in (".", "->") \
                and tokens[k - 2].kind == IDENT \
                and "pool" in tokens[k - 2].value.lower():
            pass
        else:
            continue
        close = _find_matching(tokens, k + 1, "(", ")")
        j = k + 2
        while j < close:
            if tokens[j].value != "[":
                j += 1
                continue
            cap_end = _find_matching(tokens, j, "[", "]")
            b = cap_end + 1
            if b < close and tokens[b].value == "(":
                b = _find_matching(tokens, b, "(", ")") + 1
            steps = 0
            while b < close and tokens[b].value != "{" and steps < 12:
                b += 1
                steps += 1
            if b >= close or tokens[b].value != "{":
                j = cap_end + 1
                continue
            body_close = _find_matching(tokens, b, "{", "}")
            body = tokens[b + 1:body_close]
            task = {"line": tokens[j].line, "col": tokens[j].col,
                    "via": t.value}
            sub = _analyze_body(body, [])
            task["calls"] = sub["calls"]
            task["blocking_tokens"] = sub["blocking_tokens"]
            out.append(task)
            j = body_close + 1
    return out


def _namespace_scope(tokens):
    """Per token: True when it sits at namespace scope -- outside every
    class, enum, function or initializer brace and every parenthesis."""
    flags = []
    opened = []  # per open brace: True for a namespace / extern "C" body
    closed_scopes = 0  # open braces that are not namespace bodies
    parens = 0
    pending_ns = False
    for k, t in enumerate(tokens):
        flags.append(parens == 0 and closed_scopes == 0)
        if t.kind == IDENT and t.value == "namespace":
            pending_ns = True
        elif t.kind == STRING and k > 0 and tokens[k - 1].value == "extern":
            pending_ns = True
        elif t.kind == PUNCT and t.value == "{":
            opened.append(pending_ns)
            closed_scopes += not pending_ns
            pending_ns = False
        elif t.kind == PUNCT and t.value == "}":
            if opened:
                closed_scopes -= not opened.pop()
        elif t.kind == PUNCT and t.value == ";":
            pending_ns = False
        elif t.kind == PUNCT and t.value == "(":
            parens += 1
        elif t.kind == PUNCT and t.value == ")":
            parens = max(0, parens - 1)
    return flags


def _extract_provides(tokens):
    """Names a file declares (types, usings, macros, functions, globals),
    as (every name, the namespace-scope subset).  The full set is the
    'signature' for header-signature call resolution, where
    over-providing is safe (conservative).  unused-include reads only the
    namespace-scope subset: a header's member, parameter and local names
    (`end`, `out`, `finish`) are no reason to include it.  Namespace
    names are excluded from both so `support::` uses don't mark every
    support header used."""
    provides = set()
    ns_provides = set()
    at_ns_scope = _namespace_scope(tokens)

    def provide(name, k):
        provides.add(name)
        if at_ns_scope[k]:
            ns_provides.add(name)

    n = len(tokens)
    k = 0
    while k < n:
        t = tokens[k]
        if t.kind == PP:
            m = re.match(r"#\s*define\s+([A-Za-z_]\w*)", t.value)
            if m:
                provide(m.group(1), k)
            k += 1
            continue
        if t.kind == IDENT and t.value in ("class", "struct", "enum",
                                           "union"):
            j = k + 1
            last = None
            while j < n:
                v = tokens[j]
                if v.kind == PUNCT and v.value in ("{", ";", ":", ",", ")",
                                                   "<", ">", "="):
                    break
                if v.kind == PUNCT and v.value == "(":
                    j = _find_matching(tokens, j, "(", ")") + 1
                    continue
                if v.kind == IDENT and v.value not in _NOT_DECL_NAMES:
                    last = j
                j += 1
            if last is not None:
                provide(tokens[last].value, last)
            k = j
            continue
        if t.kind == IDENT and t.value == "using" and k + 2 < n \
                and tokens[k + 1].kind == IDENT \
                and tokens[k + 2].value == "=":
            provide(tokens[k + 1].value, k + 1)
            k += 3
            continue
        if t.kind == IDENT and t.value == "using":
            # A using-declaration (`using crypto::NodeId;`) re-exports the
            # last name into this scope.
            j = k + 1
            while j + 2 < n and tokens[j].kind == IDENT \
                    and tokens[j + 1].value == "::":
                j += 2
            if j > k + 1 and j + 1 < n and tokens[j].kind == IDENT \
                    and tokens[j + 1].value == ";":
                provide(tokens[j].value, j)
                k = j + 2
                continue
        if t.kind == IDENT and t.value == "typedef":
            j = k + 1
            last = None
            while j < n and tokens[j].value != ";":
                if tokens[j].kind == IDENT:
                    last = j
                j += 1
            if last is not None:
                provide(tokens[last].value, last)
            k = j
            continue
        if t.kind == IDENT and t.value not in _NOT_DECL_NAMES and k > 0:
            prev = tokens[k - 1]
            nxt = tokens[k + 1] if k + 1 < n else None
            prev_ok = (prev.kind == IDENT
                       and prev.value not in ("namespace", "return", "new",
                                              "delete", "throw", "case",
                                              "goto", "else", "do",
                                              "sizeof", "co_return",
                                              "co_await", "co_yield")) \
                or (prev.kind == PUNCT and prev.value in ("&", "&&", "*", ">",
                                                          ">>", "~"))
            if prev_ok and nxt is not None and \
                    (nxt.value in ("(", "=", ";", ",", "{", "[", ")")
                     or nxt.kind == IDENT):
                provide(t.value, k)
        k += 1
    return provides, ns_provides


def _extract_fp_idents(tokens):
    """Identifiers declared with double/float (directly or via
    vector<double>-style template args): the typing oracle for
    fp-determinism's MAC check."""
    out = set()
    n = len(tokens)
    for k, t in enumerate(tokens):
        if t.kind != IDENT or t.value not in ("double", "float"):
            continue
        j = k + 1
        while j < n and tokens[j].value in _FP_DECL_SKIP:
            j += 1
        if j < n and tokens[j].kind == IDENT \
                and tokens[j].value not in _NOT_DECL_NAMES:
            out.add(tokens[j].value)
    return out


def _extract_mutex_decls(tokens):
    """`support::Mutex name;`-shaped declarations: the lock universe for
    lock-order.  References/pointers/returns are skipped."""
    out = []
    n = len(tokens)
    for k, t in enumerate(tokens):
        if t.kind != IDENT or t.value != "Mutex":
            continue
        prev = tokens[k - 1] if k > 0 else None
        if prev is not None and prev.kind == IDENT and \
                prev.value in ("class", "struct", "friend", "enum"):
            continue
        nxt = tokens[k + 1] if k + 1 < n else None
        after = tokens[k + 2] if k + 2 < n else None
        if nxt is None or nxt.kind != IDENT or nxt.value in _NOT_DECL_NAMES:
            continue
        if after is not None and after.value == "(":
            continue  # function returning Mutex / ctor shape
        out.append([nxt.line, nxt.value])
    return out


def extract_facts(text):
    """All per-file facts, JSON-serializable (cached keyed on sha256)."""
    tokens = cpplex.lex(text)
    includes = []
    idents = set()
    for t in tokens:
        if t.kind == PP:
            m = re.match(r'#\s*include\s+(["<])([^">]+)[">]', t.value)
            if m:
                includes.append([t.line, m.group(2), m.group(1) == '"'])
            idents.update(_PP_IDENT_RE.findall(t.value))
        elif t.kind == IDENT:
            idents.add(t.value)
    provides, ns_provides = _extract_provides(tokens)
    return {
        "token_rules": {rule: hits for rule, match in _TOKEN_RULES.items()
                        if (hits := match(tokens))},
        "includes": includes,
        "functions": list(_extract_functions(tokens)),
        "pool_tasks": _extract_pool_tasks(tokens),
        "idents": sorted(idents),
        "provides": sorted(provides),
        "ns_provides": sorted(ns_provides),
        "fp_idents": sorted(_extract_fp_idents(tokens)),
        "mutex_decls": _extract_mutex_decls(tokens),
    }


# ---------------------------------------------------------------------------
# Program: the whole-program graph

class Program:
    """Include graph + symbol/call graph over a file set.

    `files` maps virtual (repo-relative, '/'-separated) paths to absolute
    paths; `commands` maps TU virtual paths to their compile command (None
    for headers).  Facts come from the cache when the content hash
    matches, else from extract_facts."""

    def __init__(self, files, commands, cache_path=None):
        self.paths = dict(files)
        self.commands = dict(commands)
        self.facts = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._closure = {}
        self._ns_provides_closure = {}
        self._fp_closure = {}
        self._resolve_memo = {}
        self._provset_memo = {}
        self._lock_memo = {}
        self._eff_acq = {}
        self.suppressible = {}  # rule -> findings with its allowlist off
        self.unresolved = []  # [rel, line, col, bare]
        self.weak_edges = 0

        cache = {"version": FACTS_VERSION, "files": {}}
        if cache_path and os.path.exists(cache_path):
            try:
                with open(cache_path, encoding="utf-8") as f:
                    loaded = json.load(f)
                if loaded.get("version") == FACTS_VERSION:
                    cache = loaded
            except (OSError, ValueError):
                pass
        dirty = False
        for rel, path in self.paths.items():
            with open(path, "rb") as f:
                raw = f.read()
            sha = hashlib.sha256(raw).hexdigest()
            entry = cache["files"].get(rel)
            if entry is not None and entry.get("sha") == sha:
                self.facts[rel] = entry["facts"]
                self.cache_hits += 1
            else:
                self.facts[rel] = extract_facts(
                    raw.decode("utf-8", errors="replace"))
                cache["files"][rel] = {"sha": sha, "facts": self.facts[rel]}
                self.cache_misses += 1
                dirty = True
        stale = set(cache["files"]) - set(self.paths)
        if stale:
            for rel in stale:
                del cache["files"][rel]
            dirty = True
        if cache_path and dirty:
            try:
                # Per-process temp name: concurrent runs over one build
                # dir (parallel ctest entries) never share a half-written
                # file; os.replace keeps the last complete one.
                tmp = f"{cache_path}.{os.getpid()}.tmp"
                with open(tmp, "w", encoding="utf-8") as f:
                    json.dump(cache, f)
                os.replace(tmp, cache_path)
            except OSError:
                pass

        # Resolved include edges: rel -> [(line, as_written, target|None)]
        self.inc = {}
        for rel, facts in self.facts.items():
            edges = []
            base = os.path.dirname(rel)
            for line, inc, quoted in facts["includes"]:
                target = None
                for cand in ("src/" + inc,
                             os.path.normpath(os.path.join(base, inc))
                             .replace(os.sep, "/")):
                    if cand in self.facts:
                        target = cand
                        break
                edges.append((line, inc, target))
            self.inc[rel] = edges

        # Definition index: bare name -> [(rel, fn_index)]
        self.defs = {}
        for rel, facts in self.facts.items():
            for i, fn in enumerate(facts["functions"]):
                self.defs.setdefault(fn["name"], []).append((rel, i))
        # Lock decl index: name -> [rel]
        self.lock_decls = {}
        for rel, facts in self.facts.items():
            for _line, name in facts["mutex_decls"]:
                self.lock_decls.setdefault(name, []).append(rel)

    def fn(self, ref):
        return self.facts[ref[0]]["functions"][ref[1]]

    def _provset(self, rel):
        if rel not in self._provset_memo:
            self._provset_memo[rel] = set(self.facts[rel]["provides"])
        return self._provset_memo[rel]

    def fn_id(self, ref):
        return f"{ref[0]}::{self.fn(ref)['qname']}"

    def closure(self, rel):
        """`rel` plus every file transitively reachable via resolved
        includes (cycle-safe)."""
        if rel in self._closure:
            return self._closure[rel]
        seen = set()
        stack = [rel]
        while stack:
            f = stack.pop()
            if f in seen:
                continue
            seen.add(f)
            for _line, _inc, target in self.inc.get(f, ()):
                if target is not None and target not in seen:
                    stack.append(target)
        self._closure[rel] = seen
        return seen

    def ns_provides_closure(self, rel):
        if rel not in self._ns_provides_closure:
            out = set()
            for f in self.closure(rel):
                out.update(self.facts[f]["ns_provides"])
            self._ns_provides_closure[rel] = out
        return self._ns_provides_closure[rel]

    def fp_closure(self, rel):
        if rel not in self._fp_closure:
            out = set()
            for f in self.closure(rel):
                out.update(self.facts[f]["fp_idents"])
            self._fp_closure[rel] = out
        return self._fp_closure[rel]

    @staticmethod
    def _qname_compatible(call_q, def_q):
        if "::" not in call_q or "::" not in def_q:
            return True
        a = call_q.split("::")
        b = def_q.split("::")
        short, long_ = (a, b) if len(a) <= len(b) else (b, a)
        return long_[-len(short):] == short

    def resolve_call(self, caller_rel, bare, qname, line=0, col=0,
                     record=True, member=False):
        """Definition candidates for a call site.  Order: edge-ignored std
        member names drop; exact/compatible qualified match; same-file;
        header-signature (a shared header in both closures provides the
        name); weak fallback to all candidates.  A project-looking name
        with no definition anywhere is recorded as unresolved -- except
        member calls (std vocabulary / member function pointers) and
        names the caller's own file declares (local lambdas, functors)."""
        if bare in _EDGE_IGNORED:
            return ()
        key = (caller_rel, bare, qname)
        hit = self._resolve_memo.get(key)
        if hit is not None:
            return hit
        cands = self.defs.get(bare, ())
        if not cands:
            if record and not member and bare not in _EXTERNAL_NAMES \
                    and "std" not in qname.split("::") \
                    and not bare.startswith("_") \
                    and not _ALLCAPS_RE.match(bare) \
                    and bare not in self._provset(caller_rel):
                self.unresolved.append([caller_rel, line, col, bare])
            self._resolve_memo[key] = ()
            return ()
        if "::" in qname:
            qc = [d for d in cands
                  if self._qname_compatible(qname, self.fn(d)["qname"])]
            if qc:
                cands = qc
        same = [d for d in cands if d[0] == caller_rel]
        if same:
            self._resolve_memo[key] = tuple(same)
            return tuple(same)
        vis = self.closure(caller_rel)
        sig = []
        for d in cands:
            if d[0] in vis:
                sig.append(d)  # inline definition in an included header
                continue
            dvis = self.closure(d[0])
            if any(h in dvis and bare in self.facts[h]["provides"]
                   for h in vis):
                sig.append(d)  # d implements a header the caller includes
        if sig:
            cands = sig
        else:
            self.weak_edges += 1
        self._resolve_memo[key] = tuple(cands)
        return tuple(cands)

    def resolve_lock(self, rel, name):
        """Lock identity `declfile::name`: same-file declaration first,
        then include closure, then a unique global declaration; '?' when
        ambiguous or undeclared."""
        key = (rel, name)
        if key in self._lock_memo:
            return self._lock_memo[key]
        decls = self.lock_decls.get(name, ())
        out = None
        if rel in decls:
            out = f"{rel}::{name}"
        else:
            vis = self.closure(rel)
            near = sorted(d for d in decls if d in vis)
            if near:
                out = f"{near[0]}::{name}"
            elif len(decls) == 1:
                out = f"{decls[0]}::{name}"
            else:
                out = f"?::{name}"
        self._lock_memo[key] = out
        return out

    def effective_acquires(self, ref, _stack=None):
        """Lock ids acquired by `ref` directly or via any resolved
        callee (fixpoint with cycle guard)."""
        if ref in self._eff_acq:
            return self._eff_acq[ref]
        if _stack is None:
            _stack = set()
        if ref in _stack:
            return set()
        _stack.add(ref)
        fn = self.fn(ref)
        rel = ref[0]
        out = set()
        for _l, _c, name in fn["acquires"]:
            out.add(self.resolve_lock(rel, name))
        for l, c, bare, qname, mem in fn["calls"]:
            for tgt in self.resolve_call(rel, bare, qname, l, c,
                                         record=False):
                out |= self.effective_acquires(tgt, _stack)
        _stack.discard(ref)
        self._eff_acq[ref] = out
        return out


def layer_of(rel):
    parts = rel.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def _stem(rel):
    return os.path.splitext(os.path.basename(rel))[0]


# ---------------------------------------------------------------------------
# Rules

def rule_layer_deps(program, layers):
    allowed = layers.get("allowed", {})
    findings = []
    unknown_layers = set()
    for rel in sorted(program.facts):
        la = layer_of(rel)
        if la is None:
            continue
        if la not in allowed:
            if la not in unknown_layers:
                unknown_layers.add(la)
                findings.append(Finding(
                    "layer-deps", rel, 1, 1,
                    f"layer '{la}' is missing from scripts/lint/layers.json"
                    " -- every src/<layer>/ needs an allowed-edge entry"))
            continue
        ok = set(allowed[la]) | {la}
        for line, inc, target in program.inc[rel]:
            if target is None:
                continue
            lb = layer_of(target)
            if lb is None or lb in ok:
                continue
            findings.append(Finding(
                "layer-deps", rel, line, 1,
                f'#include "{inc}": layer \'{la}\' may not depend on '
                f"'{lb}' (allowed: {', '.join(sorted(ok))}) -- "
                "scripts/lint/layers.json is the normative ARCHITECTURE.md "
                "layer map; dependencies point strictly downward"))
    return findings


def _stop_functions(allow):
    return allow.get("telemetry-hotpath", {}).get("stop_functions", {})


def _hotpath_chains(program, stops):
    """Every function reachable from a telemetry emission root, across
    TUs, stopping at the stop_functions: {ref: one call chain}."""
    chains = {}
    work = []
    for rel in sorted(program.facts):
        if not rel.startswith("src/telemetry/"):
            continue
        for i, fn in enumerate(program.facts[rel]["functions"]):
            if fn["name"] in _HOTPATH_ROOTS and (rel, i) not in chains:
                chains[(rel, i)] = fn["name"]
                work.append((rel, i))
    while work:
        ref = work.pop()
        for l, c, bare, qname, mem in program.fn(ref)["calls"]:
            if bare in stops:
                continue
            for tgt in program.resolve_call(ref[0], bare, qname, l, c,
                                            member=bool(mem)):
                if tgt not in chains:
                    chains[tgt] = f"{chains[ref]} -> {bare}"
                    work.append(tgt)
    return chains


def rule_telemetry_hotpath(program, allow):
    stops = _stop_functions(allow)
    findings = []
    seen = set()

    def flag(rel, l, c, what, chain, harm):
        if (rel, l, c) in seen:
            return
        seen.add((rel, l, c))
        findings.append(Finding(
            "telemetry-hotpath", rel, l, c,
            f"{what} reachable from the telemetry emission path ({chain}): "
            f"the record hot path must not {harm}"))

    for ref, chain in _hotpath_chains(program, stops).items():
        fn = program.fn(ref)
        rel = ref[0]
        for l, c, bare, _q, _m in fn["calls"]:
            if bare in _HOTPATH_FORBIDDEN_CALLS and bare not in stops:
                flag(rel, l, c, f"`{bare}`", chain,
                     "allocate, lock, block, or read ad-hoc clocks -- route "
                     "cold work through an allowlisted stop function "
                     "(scripts/lint/allowlists.json)")
        for l, c, lock in fn["acquires"]:
            flag(rel, l, c, f"`MutexLock` on `{lock}`", chain,
                 "lock -- route cold work through an allowlisted stop "
                 "function (scripts/lint/allowlists.json)")
        for l, c, kind in fn["news"]:
            flag(rel, l, c, f"`{kind}`", chain, "allocate or throw")
    return findings


_FP_BAD_FLAGS = ("-ffast-math", "-funsafe-math-optimizations",
                 "-fassociative-math", "-Ofast")


def rule_fp_determinism(program, allow):
    findings = []
    for rel in sorted(program.commands):
        cmd = program.commands[rel]
        if cmd is None:
            continue
        if "-ffp-contract=off" not in cmd:
            findings.append(Finding(
                "fp-determinism", rel, 1, 1,
                "compile command lacks -ffp-contract=off: the bit-pin "
                "convention requires contraction off project-wide so "
                "scalar results are ISA-portable bit-for-bit"))
        for bad in _FP_BAD_FLAGS:
            if bad in cmd.split():
                findings.append(Finding(
                    "fp-determinism", rel, 1, 1,
                    f"compile command carries {bad}: value-unsafe math "
                    "breaks the fixed-seed bit pins"))
    return findings + unexempted(program, allow, "fp-determinism")


def _mac_loops(program):
    findings = []
    for rel in sorted(program.facts):
        if not rel.startswith("src/"):
            continue
        fpids = None
        for fn in program.facts[rel]["functions"]:
            for mac in fn["macs"]:
                if fpids is None:
                    fpids = program.fp_closure(rel)
                if mac["fp_literal"] or not fpids.isdisjoint(mac["idents"]):
                    findings.append(Finding(
                        "fp-determinism", rel, mac["line"], mac["col"],
                        f"floating-point multiply-accumulate loop in "
                        f"`{fn['qname']}`: an FMA-eligible reduction "
                        "outside src/support/simd*/vecmath* -- route it "
                        "through a KernelTable/vecmath kernel (bit-pinned "
                        "per backend) or allowlist it with a written "
                        "justification"))
    return findings


def _lock_edges(program):
    """The global acquires-while-holding multigraph:
    {(holder, acquired): [(rel, line, col, note), ...]}."""
    edges = {}

    def add(a, b, rel, line, col, note):
        edges.setdefault((a, b), []).append((rel, line, col, note))

    for rel in sorted(program.facts):
        for i, fn in enumerate(program.facts[rel]["functions"]):
            for holder, l, c, name in fn["held"]:
                add(program.resolve_lock(rel, holder),
                    program.resolve_lock(rel, name),
                    rel, l, c, f"in {fn['qname']}")
            for holder, l, c, callee in fn["held_calls"]:
                for tgt in program.resolve_call(rel, callee,
                                                callee, l, c, record=False):
                    for acq in program.effective_acquires(tgt):
                        add(program.resolve_lock(rel, holder), acq,
                            rel, l, c,
                            f"in {fn['qname']} via {callee}()")
    return edges


def rule_lock_order(program, allow):
    conf = allow.get("lock-order", {}).get("locks", {})
    findings = []
    discovered = {}
    for rel in sorted(program.facts):
        if not rel.startswith("src/"):
            continue
        for line, name in program.facts[rel]["mutex_decls"]:
            discovered[f"{rel}::{name}"] = (rel, line)
    for lock_id, (rel, line) in sorted(discovered.items()):
        if lock_id not in conf:
            findings.append(Finding(
                "lock-order", rel, line, 1,
                f"lock `{lock_id}` is not documented in the lock-order "
                "hierarchy (scripts/lint/allowlists.json): every "
                "support::Mutex needs a may_acquire entry (usually empty "
                "-- leaf) with a written justification"))
    for lock_id in sorted(conf):
        if lock_id not in discovered:
            findings.append(Finding(
                "lock-order", ALLOWLIST_REL, 1, 1,
                f"stale lock-order hierarchy entry `{lock_id}`: no such "
                "support::Mutex declaration exists any more"))
    edges = _lock_edges(program)
    for (a, b), sites in sorted(edges.items()):
        rel, line, col, note = sites[0]
        if a == b:
            findings.append(Finding(
                "lock-order", rel, line, col,
                f"`{a}` acquired while already held ({note}): "
                "self-deadlock on the non-recursive support::Mutex"))
            continue
        may = set(conf.get(a, {}).get("may_acquire", ()))
        if b not in may:
            findings.append(Finding(
                "lock-order", rel, line, col,
                f"`{b}` acquired while holding `{a}` ({note}): the "
                "documented hierarchy does not sanction this edge -- "
                "either restructure to scoped release-then-acquire "
                "(the parallel.cpp idiom) or extend may_acquire in "
                "scripts/lint/allowlists.json with a justification"))
    adj = {}
    for (a, b) in edges:
        if a != b:
            adj.setdefault(a, set()).add(b)
    state = {}
    for start in sorted(adj):
        stack = [(start, iter(sorted(adj.get(start, ()))))]
        if state.get(start):
            continue
        state[start] = 1
        path = [start]
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
                path.pop()
                continue
            if state.get(nxt) == 1:
                cyc = path[path.index(nxt):] + [nxt]
                rel, line, col, _n = edges[(node, nxt)][0]
                findings.append(Finding(
                    "lock-order", rel, line, col,
                    "lock-order cycle: " + " -> ".join(cyc) +
                    " -- two threads taking these in opposite order "
                    "deadlock; break the cycle with scoped "
                    "release-then-acquire"))
            elif state.get(nxt) is None:
                state[nxt] = 1
                path.append(nxt)
                stack.append((nxt, iter(sorted(adj.get(nxt, ())))))
        continue
    return findings


def _under(rel, prefixes):
    return any(rel.startswith(p) for p in prefixes)


def _blocking_walk(program, sched):
    """Reachability from every ThreadPool task body outside the scheduler
    paths: (findings, {ref: one call chain})."""
    findings = []
    seen = set()

    def flag(rel, l, c, what, chain):
        key = (rel, l, c)
        if key in seen:
            return
        seen.add(key)
        findings.append(Finding(
            "blocking-in-worker", rel, l, c,
            f"`{what}` reachable from a ThreadPool task body ({chain}): "
            "worker tasks must stay non-blocking (no sleeps, condvar "
            "waits, joins, process spawns, or file/socket IO) -- move "
            "the blocking work to the caller or behind the pool's own "
            "scheduler (allowlisted scheduler_paths)"))

    chains = {}
    work = []

    def enqueue(rel, l, c, bare, qname, mem, chain):
        targets = program.resolve_call(rel, bare, qname, l, c,
                                       member=bool(mem))
        if bare in _BLOCKING_CALLS:
            # A blocking name that resolves to a project definition
            # outside the scheduler is a project function that merely
            # shares the name (support::Rng::fork, not fork(2)): descend
            # into it instead.  Unresolvable names are libc/std blocking
            # primitives, and scheduler-defined ones (CondVar::wait,
            # ThreadPool::join) block by design -- both flag at the call
            # site.
            if not targets or all(_under(t[0], sched) for t in targets):
                flag(rel, l, c, bare, chain)
                return
        for tgt in targets:
            if tgt not in chains and not _under(tgt[0], sched):
                chains[tgt] = f"{chain} -> {program.fn(tgt)['qname']}"
                work.append(tgt)

    for rel in sorted(program.facts):
        if _under(rel, sched):
            continue
        for task in program.facts[rel]["pool_tasks"]:
            chain = f"task@{rel}:{task['line']}"
            for l, c, name in task["blocking_tokens"]:
                flag(rel, l, c, name, chain)
            for l, c, bare, qname, mem in task["calls"]:
                enqueue(rel, l, c, bare, qname, mem, chain)
    while work:
        ref = work.pop()
        fn = program.fn(ref)
        rel = ref[0]
        chain = chains[ref]
        for l, c, name in fn["blocking_tokens"]:
            flag(rel, l, c, name, chain)
        for l, c, bare, qname, mem in fn["calls"]:
            enqueue(rel, l, c, bare, qname, mem, chain)
    return findings, chains


def rule_blocking_in_worker(program, allow):
    return _blocking_walk(program, allowed_paths(allow,
                                                 "blocking-in-worker"))[0]


def _blocking_sites(program):
    """Every blocking call or stream construction in a function body:
    what a scheduler_paths entry stops the walk from flagging."""
    sites = []
    for rel in sorted(program.facts):
        for fn in program.facts[rel]["functions"]:
            hits = [(l, c, bare) for l, c, bare, _q, _m in fn["calls"]
                    if bare in _BLOCKING_CALLS] + \
                [tuple(b) for b in fn["blocking_tokens"]]
            sites += [Finding("blocking-in-worker", rel, l, c,
                              f"`{what}` blocks") for l, c, what in hits]
    return sites


def _unused_includes(program):
    findings = []
    for rel in sorted(program.facts):
        if not rel.startswith("src/"):
            continue
        uses = set(program.facts[rel]["idents"])
        for line, inc, target in program.inc[rel]:
            if target is None or _stem(target) == _stem(rel):
                continue
            # IWYU semantics: the *directly* included header must itself
            # provide a referenced name -- names satisfied only by its
            # nested includes mean the nested header is the one to
            # include.
            provs = set(program.facts[target]["ns_provides"])
            if not provs:
                continue
            if provs.isdisjoint(uses):
                sample = ", ".join(sorted(provs)[:3])
                findings.append(Finding(
                    "unused-include", rel, line, 1,
                    f'#include "{inc}" provides no name this file '
                    f"references (IWYU-lite; it provides e.g. {sample}) "
                    "-- drop it or allowlist with a justification"))
    return findings


def _token_rule_hits(program, rule):
    return [Finding(rule, rel, l, c, message)
            for rel in sorted(program.facts) if rel.startswith("src/")
            for l, c, message in program.facts[rel]["token_rules"].get(
                rule, ())]


# Path-prefix allowlists: rule -> (allowlist key, what one entry can
# suppress).  That is the rule's findings with the allowlist off, or for
# scheduler_paths the blocking sites the walk stops at.  An entry under
# which none of it sits suppresses nothing and is stale.
_PATH_ALLOWLISTS = {
    **{rule: ("exempt_paths",
              lambda program, rule=rule: _token_rule_hits(program, rule))
       for rule in _TOKEN_RULES},
    "fp-determinism": ("exempt_paths", _mac_loops),
    "blocking-in-worker": ("scheduler_paths", _blocking_sites),
    "unused-include": ("exempt_paths", _unused_includes),
}


def allowed_paths(allow, rule):
    return allow.get(rule, {}).get(_PATH_ALLOWLISTS[rule][0], {})


def suppressible(program, rule):
    """Memoized per program: the rule and the stale check share it."""
    if rule not in program.suppressible:
        program.suppressible[rule] = _PATH_ALLOWLISTS[rule][1](program)
    return program.suppressible[rule]


def unexempted(program, allow, rule):
    prefixes = allowed_paths(allow, rule)
    return [f for f in suppressible(program, rule)
            if not _under(f.path, prefixes)]


_GRAPH_RULES = {
    "telemetry-hotpath": rule_telemetry_hotpath,
    "fp-determinism": rule_fp_determinism,
    "lock-order": rule_lock_order,
    "blocking-in-worker": rule_blocking_in_worker,
}


def run_rules(program, rules, allow, layers):
    findings = []
    for rule in rules:
        if rule == "layer-deps":
            findings += rule_layer_deps(program, layers)
        elif rule in _TOKEN_RULES or rule == "unused-include":
            findings += unexempted(program, allow, rule)
        else:
            findings += _GRAPH_RULES[rule](program, allow)
    return findings


def check_stale_allowlists(program, allow):
    """Dead allowlist entries read as a live justification for a
    suppression that no longer happens.  A path entry is stale when its
    prefix matches no analyzed file or when nothing it could suppress
    sits under it; a stop_functions entry is stale when the name appears
    nowhere in src/telemetry/.  (Stale lock-hierarchy entries are
    lock-order's own findings.)"""
    findings = []
    for rule, (key, _) in _PATH_ALLOWLISTS.items():
        for prefix, why in allowed_paths(allow, rule).items():
            if not any(rel.startswith(prefix) for rel in program.facts):
                reason = "matches no analyzed file"
            elif not any(f.path.startswith(prefix)
                         for f in suppressible(program, rule)):
                reason = (f"no {rule} finding sits under it even with the "
                          "entry off, so it suppresses nothing")
            else:
                continue
            findings.append(Finding(
                rule, ALLOWLIST_REL, 1, 1,
                f"stale {key} entry `{prefix}`: {reason} -- delete it "
                f"(justification was: {why!r})"))
    telemetry_idents = set()
    for rel, facts in program.facts.items():
        if rel.startswith("src/telemetry/"):
            telemetry_idents.update(facts["idents"])
    for name, why in _stop_functions(allow).items():
        if name not in telemetry_idents:
            findings.append(Finding(
                "telemetry-hotpath", ALLOWLIST_REL, 1, 1,
                f"stale stop_functions entry `{name}`: no such identifier "
                "appears in src/telemetry/ any more -- delete it "
                f"(justification was: {why!r})"))
    return findings


# ---------------------------------------------------------------------------
# Tree / fixture discovery

def rel_to_repo(path):
    return os.path.relpath(os.path.abspath(path), REPO_ROOT).replace(
        os.sep, "/")


def tree_program(build_dir, cache_path):
    cc_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(cc_path):
        sys.exit(f"analyzer.py: {cc_path} not found -- configure with "
                 "cmake first or pass --build-dir")
    with open(cc_path, encoding="utf-8") as f:
        entries = json.load(f)
    files = {}
    commands = {}
    for entry in entries:
        path = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"]))
        rel = rel_to_repo(path)
        cmd = entry.get("command") or " ".join(entry.get("arguments", ()))
        if rel.startswith("src/"):
            files[rel] = path
            commands[rel] = cmd
        elif rel.startswith(("bench/", "apps/")):
            # Graph analysis stays src/-scoped, but the FP flag check
            # covers every TU whose output feeds the pinned perf series.
            commands[rel] = cmd
    for root, _dirs, names in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in names:
            if name.endswith((".hpp", ".h", ".hh", ".hxx")):
                path = os.path.join(root, name)
                files[rel_to_repo(path)] = path
    commands = {rel: cmd for rel, cmd in commands.items()
                if rel in files or not rel.startswith("src/")}
    return Program(files, commands, cache_path)


def fixture_program(root):
    """A Program over a fixture tree: every *.cpp under <root>/src is a
    TU with a synthesized compile command (-ffp-contract=off unless the
    name contains 'noflag')."""
    files = {}
    commands = {}
    src = os.path.join(root, "src")
    for walk_root, _dirs, names in os.walk(src):
        for name in names:
            path = os.path.join(walk_root, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            files[rel] = path
            if name.endswith(".cpp"):
                flag = "" if "noflag" in name else " -ffp-contract=off"
                commands[rel] = (f"c++ -I{src} -std=c++20 -O2{flag} "
                                 f"-c {path}")
    return Program(files, commands, cache_path=None)


def load_json(directory, name, default=None):
    """`directory/name` parsed; `default` when given and the file is
    absent (a fixture tree without its own allowlists/layer map)."""
    path = os.path.join(directory, name)
    if default is not None and not os.path.exists(path):
        return default
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Self-test, graph dump, explain, summary

# The self-test's pseudo-rule for check_stale_allowlists: its bad* trees
# hold only stale entries, and each one must be flagged.
STALE_ALLOWLIST = "stale-allowlist"


def _allowlist_entries(allow):
    return [name for conf in allow.values() if isinstance(conf, dict)
            for entries in conf.values() for name in entries]


def self_test(fixtures_dir, rules):
    """Every rule (and the stale check) needs at least one bad* tree, which
    must be flagged, and one clean* tree, which must not be."""
    failures = 0
    for rule in rules:
        rule_dir = os.path.join(fixtures_dir, rule.replace("-", "_"))
        trees = sorted(d for d in os.listdir(rule_dir)
                       if d.startswith(("bad", "clean"))) \
            if os.path.isdir(rule_dir) else []
        if not any(t.startswith("bad") for t in trees) or \
                not any(t.startswith("clean") for t in trees):
            print(f"self-test: {rule}: needs a bad* and a clean* tree")
            failures += 1
        for tree in trees:
            root = os.path.join(rule_dir, tree)
            program = fixture_program(root)
            allow = load_json(root, "allowlists.json", {})
            if rule == STALE_ALLOWLIST:
                findings = check_stale_allowlists(program, allow)
            else:
                layers = load_json(root, "layers.json", {"allowed": {}})
                findings = [f for f in run_rules(program, (rule,), allow,
                                                 layers) if f.rule == rule]
            name = f"{rule}/{tree}"
            if tree.startswith("clean"):
                ok = not findings
                print(f"self-test: {name}: "
                      + ("clean -- ok" if ok else "expected clean, got:"))
                for f in findings:
                    print(f"  {f}")
            elif rule == STALE_ALLOWLIST:
                missed = [e for e in _allowlist_entries(allow)
                          if not any(f"`{e}`" in f.message for f in findings)]
                ok = not missed
                print(f"self-test: {name}: " +
                      (f"all {len(findings)} stale entries flagged -- ok"
                       if ok else f"stale entries not flagged: {missed}"))
            else:
                ok = bool(findings)
                print(f"self-test: {name}: " +
                      (f"flagged ({len(findings)} finding(s)) -- ok" if ok
                       else f"expected a [{rule}] finding, got none"))
            failures += not ok
    if failures:
        print(f"self-test: {failures} fixture expectation(s) failed")
        return 1
    print("self-test: all fixture expectations hold")
    return 0


def graph_dump(program, out):
    call_edges = set()
    for rel in sorted(program.facts):
        for fn in program.facts[rel]["functions"]:
            for l, c, bare, qname, mem in fn["calls"]:
                for tgt in program.resolve_call(rel, bare, qname, l, c,
                                                member=bool(mem)):
                    call_edges.add((f"{rel}::{fn['qname']}",
                                    program.fn_id(tgt)))
    lock_e = _lock_edges(program)
    data = {
        "files": len(program.facts),
        "include_edges": [
            [rel, target, line]
            for rel in sorted(program.inc)
            for line, _inc, target in program.inc[rel] if target],
        "call_edges": sorted(call_edges),
        "unresolved_calls": program.unresolved,
        "weak_edges": program.weak_edges,
        "locks": {f"{rel}::{name}": line
                  for rel in sorted(program.facts)
                  for line, name in program.facts[rel]["mutex_decls"]},
        "lock_edges": [[a, b, sites[0][0], sites[0][1]]
                       for (a, b), sites in sorted(lock_e.items())],
        "pool_task_roots": [
            [rel, t["line"], t["via"]]
            for rel in sorted(program.facts)
            for t in program.facts[rel]["pool_tasks"]],
    }
    text = json.dumps(data, indent=1)
    if out == "-":
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        print(f"analyzer.py: graph dumped to {out}")


def explain(program, allow, layers, query):
    if ":" not in query:
        print(f"explain: expected <rule>:<symbol>, got {query!r}")
        return 2
    rule, sym = query.split(":", 1)
    if rule == "layer-deps":
        la = layer_of(sym)
        allowed = layers.get("allowed", {})
        print(f"{sym}: layer '{la}', allowed deps: "
              f"{sorted(set(allowed.get(la, ())) | {la})}")
        for line, inc, target in program.inc.get(sym, ()):
            lb = layer_of(target) if target else None
            print(f"  line {line}: include {inc} -> "
                  f"{target or '<external>'} (layer {lb})")
        return 0
    if rule in ("telemetry-hotpath", "blocking-in-worker"):
        if rule == "telemetry-hotpath":
            chains = _hotpath_chains(program, _stop_functions(allow))
        else:
            chains = _blocking_walk(program, allowed_paths(allow, rule))[1]
        hits = [(ref, chain) for ref, chain in sorted(chains.items())
                if program.fn(ref)["name"] == sym
                or program.fn(ref)["qname"] == sym]
        if not hits:
            print(f"{sym}: not reachable under {rule}")
        for ref, chain in hits:
            print(f"{program.fn_id(ref)} ({ref[0]}:"
                  f"{program.fn(ref)['line']}): reachable via {chain}")
        return 0
    if rule == "lock-order":
        edges = _lock_edges(program)
        conf = allow.get("lock-order", {}).get("locks", {})
        matches = [lid for lid in
                   {f"{rel}::{name}" for rel in program.facts
                    for _l, name in program.facts[rel]["mutex_decls"]}
                   if lid == sym or lid.endswith("::" + sym)]
        if not matches:
            print(f"{sym}: no support::Mutex declaration matches")
            return 0
        for lid in sorted(matches):
            doc = conf.get(lid)
            print(f"{lid}: documented={'yes' if doc else 'NO'}"
                  + (f", may_acquire={doc.get('may_acquire')}" if doc
                     else ""))
            for (a, b), sites in sorted(edges.items()):
                if lid in (a, b):
                    rel, line, col, note = sites[0]
                    print(f"  edge {a} -> {b} at {rel}:{line}:{col} "
                          f"({note})")
        return 0
    if rule == "fp-determinism":
        cmd = program.commands.get(sym)
        if cmd is not None:
            print(f"{sym}: -ffp-contract=off "
                  f"{'present' if '-ffp-contract=off' in cmd else 'MISSING'}")
        for fn in program.facts.get(sym, {}).get("functions", ()):
            for mac in fn["macs"]:
                fp = (mac["fp_literal"]
                      or not program.fp_closure(sym).isdisjoint(
                          mac["idents"]))
                print(f"  {sym}:{mac['line']}: MAC loop in {fn['qname']} "
                      f"(idents {mac['idents']}, fp={'yes' if fp else 'no'})")
        return 0
    if rule == "unused-include":
        uses = set(program.facts.get(sym, {}).get("idents", ()))
        for line, inc, target in program.inc.get(sym, ()):
            if target is None:
                print(f"  line {line}: {inc} -> <external>")
                continue
            provs = program.ns_provides_closure(target)
            used = sorted(provs & uses)[:5]
            print(f"  line {line}: {inc} -> {target}: "
                  + (f"used via {used}" if used else "UNUSED"))
        return 0
    print(f"explain: unknown rule {rule!r}")
    return 2


def write_summary_md(path, per_rule, program, elapsed, budget=5.0):
    lines = ["### fairbfl-analyzer", "",
             "| rule | findings | status |", "|---|---:|---|"]
    for rule in RULES:
        n = per_rule.get(rule, 0)
        status = "clean" if n == 0 else (
            "report-only" if rule == "unused-include" else "**FAIL**")
        lines.append(f"| {rule} | {n} | {status} |")
    lines.append("")
    lines.append(
        f"{len(program.facts)} files ({program.cache_hits} cached, "
        f"{program.cache_misses} extracted), "
        f"{len(set((u[0], u[3]) for u in program.unresolved))} unresolved "
        f"call name(s), {program.weak_edges} weak edge(s); runtime "
        f"**{elapsed:.2f}s** (budget {budget:.0f}s"
        f"{' -- OVER' if elapsed > budget else ''})")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Driver

def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir",
                        default=os.path.join(REPO_ROOT, "build"))
    parser.add_argument("--rule", action="append", choices=RULES)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--graph-dump", metavar="FILE",
                        help="write the graph as JSON ('-' for stdout)")
    parser.add_argument("--explain", metavar="RULE:SYMBOL")
    parser.add_argument("--strict", action="store_true",
                        help="unused-include findings fail the run")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--summary-md", metavar="FILE",
                        help="write a per-rule markdown summary table")
    args = parser.parse_args()

    if args.self_test:
        return self_test(os.path.join(REPO_ROOT, "tests", "analyzer_fixtures"),
                         tuple(args.rule) if args.rule
                         else RULES + (STALE_ALLOWLIST,))

    t0 = time.monotonic()
    here = os.path.dirname(os.path.abspath(__file__))
    allow = load_json(here, "allowlists.json")
    layers = load_json(here, "layers.json")
    cache_path = None if args.no_cache else os.path.join(
        args.build_dir, "analyzer_cache.json")
    program = tree_program(args.build_dir, cache_path)

    if args.explain:
        return explain(program, allow, layers, args.explain)

    rules = tuple(args.rule) if args.rule else RULES
    findings = run_rules(program, rules, allow, layers)
    findings += check_stale_allowlists(program, allow)
    if args.graph_dump:
        graph_dump(program, args.graph_dump)

    # With the graph on stdout, everything else goes to stderr so the dump
    # stays one parseable JSON document.
    report = sys.stderr if args.graph_dump == "-" else sys.stdout
    enforcing = []
    for f in findings:
        if f.rule == "unused-include" and not args.strict:
            print(str(f).replace(": error: ", ": warning: ", 1), file=report)
        else:
            print(f, file=report)
            enforcing.append(f)
    elapsed = time.monotonic() - t0
    per_rule = {}
    for f in findings:
        per_rule[f.rule] = per_rule.get(f.rule, 0) + 1
    if args.summary_md:
        write_summary_md(args.summary_md, per_rule, program, elapsed)
    unresolved_names = sorted(set(u[3] for u in program.unresolved))
    note = ""
    if unresolved_names:
        shown = ", ".join(unresolved_names[:15])
        if len(unresolved_names) > 15:
            shown += ", ..."
        note = (f"; {len(unresolved_names)} unresolved call name(s) "
                f"[{shown}] (see --graph-dump)")
    print(f"analyzer.py: {len(program.facts)} files "
          f"({program.cache_hits} cached), {len(rules)} rule(s), "
          f"{len(enforcing)} finding(s) "
          f"({len(findings) - len(enforcing)} report-only), "
          f"{elapsed:.2f}s{note}",
          file=sys.stderr if enforcing else report)
    return 1 if enforcing else 0


if __name__ == "__main__":
    sys.exit(main())
