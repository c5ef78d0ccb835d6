#!/usr/bin/env python3
"""Repo-specific determinism & thread-safety linter for dbdesign.

The library's headline guarantee is that recommend/refine/deploy results
are bit-identical at any thread count and on any platform.  The classic
regressions are not exotic: someone iterates an unordered_map into a
report, calls rand() in a sampling loop, keys an ordered map by pointer,
or adds a mutex without annotating what it protects.  This linter walks
C++ sources and flags exactly those hazards:

  unordered-iteration   iterating an unordered_{map,set,multimap,multiset}
                        while appending to an ordered sink (push_back /
                        emplace_back / Append / operator+=) with no
                        std::sort / std::stable_sort of the sink nearby.
                        Hash-table iteration order is implementation-
                        defined; letting it reach a result, report or
                        JSON document makes output platform-dependent.
  unsanctioned-random   rand / srand / random / drand48 / std::random_device
                        / std::mt19937 outside util/rng.* — the seeded
                        util/rng Rng is the only sanctioned randomness.
  wall-clock            steady_clock/system_clock/high_resolution_clock
                        ::now(), time(), gettimeofday(), clock() —
                        wall-clock reads inside cost/recommend paths make
                        results timing-dependent.  Telemetry-only reads
                        get a NOLINT with justification.
  pointer-keyed-order   std::map / std::set keyed by a pointer type, or
                        std::less<T*>: address order changes run to run.
  unannotated-mutex     (a) raw std::mutex / std::lock_guard /
                        std::unique_lock / std::condition_variable
                        outside util/thread_annotations.h — invisible to
                        clang Thread Safety Analysis; use the annotated
                        Mutex / MutexLock / CondVar wrappers.
                        (b) a Mutex member that no DBD_GUARDED_BY /
                        DBD_PT_GUARDED_BY / DBD_REQUIRES in the same file
                        ever references — a lock that provably guards
                        nothing the analysis can check.
  bare-assert           assert( — the default RelWithDebInfo build
                        defines NDEBUG, so a bare assert checks nothing
                        in the build users run.  Use DBD_CHECK (always
                        on) or DBD_DCHECK (debug) from util/logging.h.
  unsanctioned-retry    (a) raw sleeps (std::this_thread::sleep_for /
                        sleep_until, usleep, nanosleep, sleep) anywhere
                        in src/ — sleeping must go through the Clock
                        seam (util/clock.h) so virtual time keeps runs
                        deterministic; (b) retry loops (for/while over
                        an attempt/retry/backoff counter) outside
                        backend/resilient_backend.* — ResilientBackend
                        is the single place allowed to loop on a backend
                        error, so retry amplification and backoff stay
                        centrally budgeted and deterministic.
  legacy-api            (a) any `owned_backend_`; (b) a `const Database&`
                        in a header outside storage/, exec/, workload/
                        and backend/inmemory_backend.h.  Components
                        attach to a DbmsBackend& and never own one, and
                        only the in-memory backend names the concrete
                        Database: that is the portability boundary.
  hand-rolled-lru       LRU recency bookkeeping outside
                        util/budgeted_lru.h: any snake_case identifier
                        with an `lru` component (`lru`, `lru_tick_`,
                        `lru_order_`, `doi_lru_tick_`, ...), the
                        per-entry tick, tick counter or tick-ordered
                        index of a home-grown LRU.  BudgetedLru is the
                        one eviction primitive: name a cache built on it
                        after what it holds, not after its policy.
  leaf-pricing          CatalogPathProvider, CostIndexLeaf, CostSeqLeaf
                        or CostIndexParamLookup outside src/optimizer/
                        and src/inum/.  INUM is the one leaf-pricing
                        authority for the design tools: they read its
                        memoized prices (InumCostModel::BindSubsets),
                        so CoPhy atoms, INUM reuse, DoI rows and
                        schedules all see the same numbers.
  hand-rolled-hash      the FNV-1a offset basis or prime (hex or
                        decimal, including the truncated decimal seed
                        kFnvLegacyBasis) outside util/hash.h.  Fnv1a is
                        the one hash: its digests key persisted atoms,
                        spill files, solver signatures and fault
                        schedules, so a second copy is a second place
                        for them to drift.
  unchecked-json-int    static_cast<T>(... .number()) to a non-floating
                        type outside util/json.*.  Casting a JSON double
                        to an integer truncates 0.9 to 0 and is
                        undefined behaviour for 1e300 or NaN; read ids,
                        counts, caps, widths and versions through
                        JsonInt, which rejects them first.

Escape hatch: a finding's line may carry

    // NOLINT(determinism): <justification>

The justification is mandatory; a bare NOLINT(determinism) is itself a
finding.  Suppressions are per-line and should say WHY the hazard is not
one here (e.g. "wall-clock telemetry only, never feeds results").

Usage:
    determinism_lint.py [paths...]      # default: src/ next to the repo root
    determinism_lint.py --list-rules
Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

import os
import re
import sys

RULES = {
    "unordered-iteration":
        "unordered-container iteration feeding an ordered sink without a sort",
    "unsanctioned-random":
        "randomness source other than the seeded util/rng Rng",
    "wall-clock":
        "wall-clock read inside a cost/recommend path",
    "pointer-keyed-order":
        "ordered container keyed by pointer (address order is per-run)",
    "unannotated-mutex":
        "mutex invisible to or unchecked by thread safety analysis",
    "bare-assert":
        "bare assert() is a no-op in the NDEBUG build; use DBD_CHECK/DBD_DCHECK",
    "unsanctioned-retry":
        "raw sleep or retry loop outside the resilience layer "
        "(backend/resilient_backend.* is the only sanctioned retrier)",
    "legacy-api":
        "owned backend member, or a header taking const Database& outside "
        "the engine layers (components attach to a DbmsBackend&)",
    "hand-rolled-lru":
        "LRU recency bookkeeping outside util/budgeted_lru.h (BudgetedLru "
        "is the one eviction primitive)",
    "leaf-pricing":
        "access-path or leaf costing outside optimizer/ and inum/ (INUM is "
        "the one leaf-pricing authority)",
    "hand-rolled-hash":
        "FNV-1a constants outside util/hash.h (Fnv1a is the one hash)",
    "unchecked-json-int":
        "JSON number cast to an integer outside util/json (use JsonInt)",
}

CPP_EXTENSIONS = (".cc", ".cpp", ".cxx", ".h", ".hpp")

# Files exempt from specific rules (path suffix match, '/'-normalized).
RANDOM_EXEMPT = ("util/rng.h", "util/rng.cc")
MUTEX_WRAPPER = ("util/thread_annotations.h",)
RETRY_EXEMPT = ("backend/resilient_backend.h", "backend/resilient_backend.cc")
DATABASE_REF_DIRS = ("storage/", "exec/", "workload/")
DATABASE_REF_FILES = ("backend/inmemory_backend.h",)
HEADER_EXTENSIONS = (".h", ".hpp")
LRU_EXEMPT = ("util/budgeted_lru.h",)
LEAF_PRICING_DIRS = ("optimizer/", "inum/")
HASH_EXEMPT = ("util/hash.h",)
JSON_INT_EXEMPT = ("util/json.h", "util/json.cc")

NOLINT_RE = re.compile(r"//\s*NOLINT\(determinism\)(?::\s*(\S.*))?")

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<[^;{]*?>\s*[&*]?\s*(\w+)\s*"
    r"(?:[;={(),]|DBD_)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*:\s*[*&]?(\w+)\s*\)")
ITER_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*(?:begin|cbegin|equal_range)\s*\(")
APPEND_RE = re.compile(
    r"\b(\w+)(?:\.\w+)*\s*\.\s*(?:push_back|emplace_back|emplace|insert|"
    r"Append)\s*\(|\b(\w+)\s*\+=")
SORT_RE = re.compile(r"\b(?:std::)?(?:stable_)?sort\s*\(")

RANDOM_RE = re.compile(
    r"\b(?:rand|srand|random|drand48|lrand48)\s*\(|std::random_device|"
    r"std::mt19937|std::default_random_engine|std::uniform_int_distribution|"
    r"std::uniform_real_distribution")
WALL_CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b|"
    r"\bgettimeofday\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0|\))|\bclock\s*\(\s*\)")
POINTER_KEY_RE = re.compile(
    r"std::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*|"
    r"std::less\s*<\s*(?:const\s+)?[\w:]+\s*\*")
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|shared_mutex|timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(?:_any)?)\b")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*;")
GUARD_REF_RE = re.compile(
    r"DBD_(?:PT_)?GUARDED_BY\s*\(\s*(\w+)\s*\)|"
    r"DBD_REQUIRES\s*\(\s*([\w,\s]+)\)|DBD_ACQUIRE\s*\(\s*(\w+)\s*\)|"
    r"DBD_RELEASE\s*\(\s*(\w+)\s*\)")
ASSERT_RE = re.compile(r"(?<![_\w])assert\s*\(")
RAW_SLEEP_RE = re.compile(
    r"std::this_thread::sleep_(?:for|until)|\busleep\s*\(|"
    r"\bnanosleep\s*\(|(?<![\w:])sleep\s*\(")
RETRY_LOOP_RE = re.compile(
    r"\b(?:for|while)\s*\([^)]*\b(?:attempt|attempts|retry|retries|"
    r"backoff|num_tries)\b")
OWNED_BACKEND_RE = re.compile(r"\bowned_backend_\b")
DATABASE_REF_RE = re.compile(
    r"\bconst\s+(?:dbdesign::)?Database\s*&|\bDatabase\s+const\s*&")
LRU_NAME_RE = re.compile(r"\b(?:[A-Za-z0-9]+_)*lru(?:_[A-Za-z0-9]+)*_?\b")
LEAF_PRICING_RE = re.compile(
    r"\b(?:CatalogPathProvider|CostIndexLeaf|CostSeqLeaf|"
    r"CostIndexParamLookup)\b")

FNV_CONSTANT_RE = re.compile(
    r"\b(?:0x0*cbf29ce484222325|0x0*100000001b3|14695981039346656037|"
    r"1469598103934665603|1099511628211)[uUlL]*\b", re.IGNORECASE)
UNCHECKED_JSON_INT_RE = re.compile(
    r"\bstatic_cast\s*<\s*(?!(?:const\s+)?(?:double|float)\s*>)[^>]+>\s*"
    r"\([^;]*\bnumber\s*\(\s*\)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(lines):
    """Returns lines with comments and string literals blanked out (same
    length preserved is not required — matching runs per stripped line),
    plus the raw lines for NOLINT extraction."""
    stripped = []
    in_block = False
    for raw in lines:
        out = []
        i = 0
        n = len(raw)
        in_string = None
        while i < n:
            c = raw[i]
            if in_block:
                if raw.startswith("*/", i):
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if in_string:
                if c == "\\":
                    i += 2
                    continue
                if c == in_string:
                    in_string = None
                i += 1
                continue
            if raw.startswith("//", i):
                break
            if raw.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if c in "\"'":
                in_string = c
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        stripped.append("".join(out))
    return stripped


def path_matches(path, suffixes):
    norm = path.replace(os.sep, "/")
    return any(norm.endswith(s) for s in suffixes)


def may_name_database(path):
    """True where a header may take the concrete Database: the engine
    layers and the in-memory backend that wraps them."""
    norm = path.replace(os.sep, "/")
    if not norm.endswith(HEADER_EXTENSIONS):
        return True
    return (path_matches(path, DATABASE_REF_FILES) or
            any("/" + d in "/" + norm for d in DATABASE_REF_DIRS))


def may_price_leaves(path):
    """True in the optimizer and in INUM, the one leaf-pricing layer."""
    norm = "/" + path.replace(os.sep, "/")
    return any("/" + d in norm for d in LEAF_PRICING_DIRS)


def lint_file(path, findings):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        findings.append(Finding(path, 0, "io", f"cannot read: {e}"))
        return

    code = strip_comments_and_strings(raw_lines)

    # Per-line suppression state: None = no NOLINT, "" = missing
    # justification, non-empty = justified.
    suppression = []
    for raw in raw_lines:
        m = NOLINT_RE.search(raw)
        if m is None:
            suppression.append(None)
        else:
            suppression.append(m.group(1) or "")

    def report(lineno, rule, message):
        sup = suppression[lineno - 1]
        if sup is None:
            findings.append(Finding(path, lineno, rule, message))
        elif sup == "":
            findings.append(Finding(
                path, lineno, rule,
                "NOLINT(determinism) requires a justification string "
                "('// NOLINT(determinism): <why this is safe>')"))
        # justified suppression: accepted.

    # --- Collect unordered-container variable names (whole file) ---
    unordered_names = set()
    for line in code:
        for m in UNORDERED_DECL_RE.finditer(line):
            unordered_names.add(m.group(1))

    # --- Collect Mutex members and guard references (whole file) ---
    mutex_members = {}  # name -> first declaration line
    guard_refs = set()
    for lineno, line in enumerate(code, 1):
        m = MUTEX_MEMBER_RE.match(line)
        if m and m.group(1) not in mutex_members:
            mutex_members[m.group(1)] = lineno
        for g in GUARD_REF_RE.finditer(line):
            for group in g.groups():
                if group:
                    for name in re.split(r"[,\s]+", group):
                        if name:
                            guard_refs.add(name)

    # --- Line rules ---
    for lineno, line in enumerate(code, 1):
        if not path_matches(path, RANDOM_EXEMPT):
            if RANDOM_RE.search(line):
                report(lineno, "unsanctioned-random",
                       "use the seeded util/rng Rng — any other randomness "
                       "source breaks bit-identical reproducibility")
        if WALL_CLOCK_RE.search(line):
            report(lineno, "wall-clock",
                   "wall-clock reads make results timing-dependent; if this "
                   "is telemetry that never feeds a result, say so in a "
                   "NOLINT justification")
        if POINTER_KEY_RE.search(line):
            report(lineno, "pointer-keyed-order",
                   "ordered container keyed by pointer: iteration order "
                   "follows allocation addresses, which differ per run")
        if not path_matches(path, MUTEX_WRAPPER):
            if RAW_MUTEX_RE.search(line):
                report(lineno, "unannotated-mutex",
                       "raw std synchronization primitive is invisible to "
                       "thread safety analysis; use Mutex/MutexLock/CondVar "
                       "from util/thread_annotations.h")
        if ASSERT_RE.search(line) and "static_assert" not in line:
            report(lineno, "bare-assert",
                   "bare assert() vanishes under NDEBUG (the default "
                   "RelWithDebInfo build); use DBD_CHECK or DBD_DCHECK")
        if RAW_SLEEP_RE.search(line):
            report(lineno, "unsanctioned-retry",
                   "raw sleep bypasses the Clock seam (util/clock.h); "
                   "virtual time is what keeps backoff and deadlines "
                   "deterministic")
        if not path_matches(path, RETRY_EXEMPT):
            if RETRY_LOOP_RE.search(line):
                report(lineno, "unsanctioned-retry",
                       "retry loop outside backend/resilient_backend.*: "
                       "ResilientBackend is the single sanctioned retrier "
                       "(centralized budget, deterministic backoff)")
        if OWNED_BACKEND_RE.search(line):
            report(lineno, "legacy-api",
                   "components attach to a caller-owned DbmsBackend&; an "
                   "owned backend is a second construction path")
        if DATABASE_REF_RE.search(line) and not may_name_database(path):
            report(lineno, "legacy-api",
                   "const Database& outside storage/, exec/, workload/ and "
                   "backend/inmemory_backend.h: take a DbmsBackend& so the "
                   "component stays portable")
        if LRU_NAME_RE.search(line) and not path_matches(path, LRU_EXEMPT):
            report(lineno, "hand-rolled-lru",
                   "LRU recency bookkeeping outside util/budgeted_lru.h: "
                   "build the cache on BudgetedLru (byte-accounted, "
                   "deterministic, with an eviction callback) instead")
        if LEAF_PRICING_RE.search(line) and not may_price_leaves(path):
            report(lineno, "leaf-pricing",
                   "leaf costing outside optimizer/ and inum/: read INUM's "
                   "memoized prices (InumCostModel::BindSubsets) so every "
                   "design tool prices a leaf the same way")
        if (FNV_CONSTANT_RE.search(line) and
                not path_matches(path, HASH_EXEMPT)):
            report(lineno, "hand-rolled-hash",
                   "FNV-1a constant outside util/hash.h: hash through "
                   "Fnv1a / Fnv1a64 so every digest comes from one mix")
        if (UNCHECKED_JSON_INT_RE.search(line) and
                not path_matches(path, JSON_INT_EXEMPT)):
            report(lineno, "unchecked-json-int",
                   "JSON number cast to an integer: read it with JsonInt, "
                   "which rejects fractional, non-finite and out-of-range "
                   "values before the cast")

    # --- Unordered iteration feeding an ordered sink ---
    WINDOW = 8
    for lineno, line in enumerate(code, 1):
        iter_var = None
        m = RANGE_FOR_RE.search(line)
        if m and m.group(1) in unordered_names:
            iter_var = m.group(1)
        else:
            m = ITER_CALL_RE.search(line)
            if m and m.group(1) in unordered_names:
                iter_var = m.group(1)
        if iter_var is None:
            continue
        window = code[lineno - 1:lineno - 1 + WINDOW]
        appends = any(APPEND_RE.search(w) for w in window)
        sorted_after = any(SORT_RE.search(w) for w in window)
        if appends and not sorted_after:
            report(lineno, "unordered-iteration",
                   f"iterating unordered container '{iter_var}' into an "
                   "ordered sink without sorting: hash-table order is "
                   "implementation-defined and will differ across platforms")

    # --- Mutex members never referenced by an annotation ---
    for name, lineno in mutex_members.items():
        if name not in guard_refs:
            report(lineno, "unannotated-mutex",
                   f"Mutex member '{name}' has no DBD_GUARDED_BY / "
                   "DBD_REQUIRES coverage in this file: annotate the fields "
                   "it protects so the analysis can check them")


def collect_files(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, _, names in os.walk(p):
                for n in sorted(names):
                    if n.endswith(CPP_EXTENSIONS):
                        files.append(os.path.join(root, n))
        else:
            print(f"determinism_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return sorted(files)


def main(argv):
    args = argv[1:]
    if "--list-rules" in args:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule}: {desc}")
        return 0
    if not args:
        repo_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        args = [os.path.join(repo_root, "src")]

    findings = []
    files = collect_files(args)
    for f in files:
        lint_file(f, findings)

    for finding in findings:
        print(finding)
    if findings:
        print(f"determinism_lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"determinism_lint: clean ({len(files)} file(s))", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
