#!/usr/bin/env python3
"""Self-test for determinism_lint.py.

Runs the linter over the seeded-violation corpora and asserts every
expected (rule, line-marker) pair fires, then over the clean corpora and
asserts zero findings.  Registered with ctest as lint.selftest so a
regression in the linter itself fails CI the same way a regression in
the library would.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LINTER = os.path.join(HERE, "determinism_lint.py")
TESTDATA = os.path.join(HERE, "testdata")


def run_linter(path):
    proc = subprocess.run(
        [sys.executable, LINTER, path],
        capture_output=True, text=True, check=False)
    findings = []
    for line in proc.stdout.splitlines():
        m = re.match(r"(.+):(\d+): \[([\w-]+)\]", line)
        if m:
            findings.append((int(m.group(2)), m.group(3)))
    return proc.returncode, findings


def expected_violations(path):
    """Lines marked `VIOLATION <rule>` must be flagged with that rule.
    Lines carrying a bare NOLINT(determinism) must be flagged too."""
    expected = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            m = re.search(r"VIOLATION ([\w-]+)", line)
            if m:
                expected.append((lineno, m.group(1)))
            elif re.search(r"NOLINT\(determinism\)\s*$", line):
                expected.append((lineno, None))  # any rule; justification missing
    return expected


def main():
    failures = []

    # --- Seeded violations: every marker must fire. ---
    for name in ("violations.cc", "violations.h"):
        vpath = os.path.join(TESTDATA, name)
        rc, findings = run_linter(vpath)
        if rc != 1:
            failures.append(f"{name}: expected exit 1, got {rc}")
        flagged = set(findings)
        flagged_lines = {line for line, _ in findings}
        for lineno, rule in expected_violations(vpath):
            if rule is None:
                if lineno not in flagged_lines:
                    failures.append(
                        f"{name}:{lineno}: bare NOLINT(determinism) "
                        "was not flagged")
            elif (lineno, rule) not in flagged:
                failures.append(
                    f"{name}:{lineno}: expected [{rule}] was not flagged")

        # Everything flagged must correspond to a marker (no false
        # positives in our own corpus).
        marker_lines = {l for l, _ in expected_violations(vpath)}
        for lineno, rule in findings:
            if lineno not in marker_lines:
                failures.append(
                    f"{name}:{lineno}: unexpected [{rule}] finding "
                    "(no VIOLATION marker on that line)")

    # --- Clean corpora: zero findings. ---
    for name in ("clean.cc", os.path.join("storage", "clean.h"),
                 os.path.join("util", "budgeted_lru.h"),
                 os.path.join("util", "hash.h"),
                 os.path.join("util", "json.cc"),
                 os.path.join("inum", "leaf_prices.cc"),
                 os.path.join("optimizer", "access_paths.cc")):
        rc, findings = run_linter(os.path.join(TESTDATA, name))
        if rc != 0 or findings:
            failures.append(
                f"{name}: expected exit 0 with no findings, got exit {rc} "
                f"with {findings}")

    # --- --list-rules exits 0 and names every rule id used above. ---
    proc = subprocess.run(
        [sys.executable, LINTER, "--list-rules"],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        failures.append(f"--list-rules: expected exit 0, got {proc.returncode}")
    for rule in ("unordered-iteration", "unsanctioned-random", "wall-clock",
                 "pointer-keyed-order", "unannotated-mutex", "bare-assert",
                 "unsanctioned-retry", "legacy-api", "hand-rolled-lru",
                 "leaf-pricing", "hand-rolled-hash", "unchecked-json-int"):
        if rule not in proc.stdout:
            failures.append(f"--list-rules output is missing '{rule}'")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("lint_selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
