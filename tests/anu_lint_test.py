#!/usr/bin/env python3
"""Acceptance test for tools/anu_lint.py (ctest label: lint).

Two halves:
  1. The fixture tree (tests/lint_fixtures/bad_tree) contains one known-bad
     snippet per rule; the linter must fail on it and every rule id must
     appear, while the justified suppression must NOT appear.
  2. The real repository must lint clean — the determinism guarantees in
     docs/static-analysis.md are only as good as a green gate.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINTER = REPO / "tools" / "anu_lint.py"
BAD_TREE = REPO / "tests" / "lint_fixtures" / "bad_tree"

EXPECTED_RULES = [
    "[wall-clock]",
    "[raw-rng]",
    "[unordered-iter]",
    "[ptr-key-container]",
    "[pool-order]",
    "[stream-parse]",
    "[layering]",
    "[bare-allow]",
    "[test-registration]",
    "[baseline-missing]",
    "[baseline-orphan]",
]


def run_linter(root: Path) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(LINTER), "--root", str(root)],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    failures: list[str] = []

    code, out = run_linter(BAD_TREE)
    if code != 1:
        failures.append(f"bad_tree: expected exit 1, got {code}\n{out}")
    for rule in EXPECTED_RULES:
        if rule not in out:
            failures.append(f"bad_tree: rule {rule} did not fire")
    # Each flagged fixture line fires exactly as designed: the justified
    # suppression in unordered_iter.cpp must be honored (2 unordered-iter
    # findings: the unsuppressed loop and the bare-allow loop, not 3).
    unordered_hits = out.count("[unordered-iter]")
    if unordered_hits != 2:
        failures.append(
            "bad_tree: justified allow() not honored — expected exactly 2 "
            f"[unordered-iter] findings, got {unordered_hits}\n{out}"
        )
    if "uses_wallclock.cpp:7" not in out or "uses_wallclock.cpp:8" not in out:
        failures.append(f"bad_tree: wall-clock lines not both flagged\n{out}")
    # Include paths are string literals, which the code matcher blanks: the
    # pool-order include and the layering include must be read off the raw
    # line, while a commented-out include stays ignored.
    if "uses_pool.cpp:4" not in out or "uses_pool.cpp:7" not in out:
        failures.append(f"bad_tree: pool include and call not both flagged\n{out}")
    # The event kernel is layered too: src/sim may include only common/ and
    # sim/ project headers.
    layering = [line for line in out.splitlines() if "[layering]" in line]
    if (len(layering) != 2 or not any("uses_sim.cpp:6" in l for l in layering)
            or not any("uses_cluster.cpp:7" in l for l in layering)):
        failures.append(
            "bad_tree: expected two [layering] findings, at uses_sim.cpp:6 "
            f"and uses_cluster.cpp:7\n{out}")
    # Input is read whole: an input string stream is flagged, an output
    # one is not.
    stream = [line for line in out.splitlines() if "[stream-parse]" in line]
    if len(stream) != 1 or "src/workload/stream_parse.cpp:9:" not in stream[0]:
        failures.append(
            "bad_tree: expected one [stream-parse] finding, at "
            f"stream_parse.cpp:9\n{out}")
    # Every directory whose code affects results is linted, the workload
    # generator included.
    if "src/workload/uses_rand.cpp:7: [raw-rng]" not in out:
        failures.append(f"bad_tree: raw-rng not flagged in src/workload\n{out}")
    # The clock seam's directory policy: src/core must stay wall-clock-free
    # even for the "harmless" steady clock, while src/runtime (whose job is
    # real time) is exempt from wall-clock but still linted by every other
    # rule — its std::rand must fire.
    if ("uses_steady_now.cpp:9" not in out
            or "uses_steady_now.cpp:10" not in out):
        failures.append(f"bad_tree: steady clock in src/core not flagged\n{out}")
    for line in out.splitlines():
        if "realtime_ok.cpp" in line and "[wall-clock]" in line:
            failures.append(f"bad_tree: wall-clock misfired in src/runtime\n{out}")
    if not any("realtime_ok.cpp" in line and "[raw-rng]" in line
               for line in out.splitlines()):
        failures.append(f"bad_tree: raw-rng did not fire in src/runtime\n{out}")

    code, out = run_linter(REPO)
    if code != 0:
        failures.append(f"real tree: expected clean (exit 0), got {code}\n{out}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"ok: all {len(EXPECTED_RULES)} rules fire on the fixture tree, "
          "suppression honored, real tree clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
