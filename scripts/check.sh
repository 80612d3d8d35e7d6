#!/usr/bin/env bash
# Full verification, split into tiers so one gate can be run alone:
#
#   scripts/check.sh              # everything, in order (what CI mirrors)
#   scripts/check.sh tsan         # just the ThreadSanitizer pass
#   scripts/check.sh format lint  # any subset, in the order given
#
# Tiers: format docs lint build test integration tidy asan tsan bench
# (.github/workflows/ci.yml mirrors these stages — docs/ci.md; the
# static-analysis tiers are specified in docs/static-analysis.md; the
# integration tier boots the live anu_serve demo — docs/runtime.md.)
# Optional tools (clang-format, clang-tidy, python3, sanitizer runtimes)
# degrade to a loud skip rather than a silent pass or a hard failure, so
# the script stays runnable in minimal containers.
set -euo pipefail
cd "$(dirname "$0")/.."

# Per-test wall-clock ceiling for every ctest invocation below. A hung
# test (e.g. a nested-batch deadlock regression) fails fast instead of wedging
# the whole check. TSan runs are 5-15x slower, hence the larger ceiling.
CTEST_TIMEOUT=600
TSAN_CTEST_TIMEOUT=1800

tier_format() {
  # Style gate. clang-format is optional in minimal containers; the check is
  # skipped (with a warning) when absent rather than silently diverging.
  if command -v clang-format >/dev/null 2>&1; then
    echo "=== clang-format --dry-run --Werror ==="
    find src tests tools bench -name '*.h' -o -name '*.cpp' | \
      xargs clang-format --dry-run --Werror
  else
    echo "warning: clang-format not found; skipping format check" >&2
  fi
}

tier_docs() {
  # Docs gate: every relative link and #anchor in README.md and docs/
  # must resolve (scripts/check_doc_links.py; mirrored by the docs-links
  # CI job). python3 is optional in minimal containers.
  if command -v python3 >/dev/null 2>&1; then
    echo "=== doc link check ==="
    python3 scripts/check_doc_links.py
  else
    echo "warning: python3 not found; skipping doc link check" >&2
  fi
}

tier_lint() {
  # Determinism linter (tools/anu_lint.py — docs/static-analysis.md): bans
  # wall-clock/raw-RNG/unordered-iteration/pointer-key/raw-pool use in
  # result-affecting code and cross-checks test registration and bench
  # baselines. The fixture test proves every rule actually fires.
  if command -v python3 >/dev/null 2>&1; then
    echo "=== anu_lint (determinism linter) ==="
    python3 tools/anu_lint.py
    python3 tests/anu_lint_test.py
  else
    echo "warning: python3 not found; skipping determinism lint" >&2
  fi
}

tier_build() {
  cmake -B build -G Ninja
  cmake --build build
}

tier_test() {
  # Tiered test run: observability suite first (fast, and the schema/doc
  # contract fails loudly), then the pool suite (determinism + batch-runner
  # acceptance checks), then the chaos suite (randomized fault scenarios
  # must converge and reconcile — docs/chaos.md), then everything.
  ctest --test-dir build -L obs --output-on-failure --timeout "$CTEST_TIMEOUT"
  ctest --test-dir build -L pool --output-on-failure --timeout "$CTEST_TIMEOUT"
  ctest --test-dir build -L chaos --output-on-failure --timeout "$CTEST_TIMEOUT"
  ctest --test-dir build --output-on-failure --timeout "$CTEST_TIMEOUT"
}

tier_integration() {
  # Live-runtime integration test: boot anu_serve on loopback sockets,
  # drive the scripted client, assert routed keys + >=1 retune
  # (scripts/integration_test.sh — docs/runtime.md). Needs the demo built;
  # reuses the build tier's tree.
  [ -x build/examples/anu_serve ] || {
    cmake -B build -G Ninja
    cmake --build build --target anu_serve
  }
  echo "=== anu_serve integration test ==="
  ./scripts/integration_test.sh build
}

tier_tidy() {
  # clang-tidy over the library and harness sources, configured by
  # .clang-tidy at the repo root. Needs the compile database, which every
  # configure exports (CMAKE_EXPORT_COMPILE_COMMANDS=ON + root symlink).
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "warning: clang-tidy not found; skipping tidy tier" >&2
    return 0
  fi
  [ -f build/compile_commands.json ] || cmake -B build -G Ninja
  echo "=== clang-tidy (full sweep) ==="
  find src tools bench -name '*.cpp' | xargs clang-tidy -p build --quiet
}

tier_asan() {
  # Sanitizer pass: the whole suite again under ASan+UBSan. Some toolchains
  # (or containers without the runtime libs) can't link it; skip with a
  # warning rather than failing the whole check — but keep the log so a
  # real build break is visible instead of silently discarded.
  local log=build-asan-configure.log
  if cmake -B build-asan -G Ninja -DANU_SANITIZE=ON >"$log" 2>&1 \
     && cmake --build build-asan >>"$log" 2>&1; then
    echo "=== ASan+UBSan test pass ==="
    ctest --test-dir build-asan --output-on-failure --timeout "$CTEST_TIMEOUT"
  else
    echo "warning: ASan+UBSan build failed; skipping sanitizer pass" >&2
    echo "--- last 30 lines of $log ---" >&2
    tail -n 30 "$log" >&2
  fi
}

tier_tsan() {
  # ThreadSanitizer pass over the concurrency-sensitive suites: the pool
  # tier (run_indexed and sweep tests, batch/matrix byte-determinism CLI
  # checks) and the chaos tier. Reports fail the run (TSan exits 66 on a report);
  # suppressions, if ever unavoidable, live in tsan.supp with justification
  # (docs/static-analysis.md) — there are currently none.
  local log=build-tsan-configure.log
  if cmake -B build-tsan -G Ninja -DANU_TSAN=ON >"$log" 2>&1 \
     && cmake --build build-tsan >>"$log" 2>&1; then
    echo "=== TSan concurrency test pass (pool + chaos tiers) ==="
    TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=0 second_deadlock_stack=1}" \
      ctest --test-dir build-tsan -L 'pool|chaos' --output-on-failure \
        --timeout "$TSAN_CTEST_TIMEOUT"
  else
    echo "warning: TSan build failed; skipping tsan tier" >&2
    echo "--- last 30 lines of $log ---" >&2
    tail -n 30 "$log" >&2
  fi
}

tier_bench() {
  # Every figure harness and microbenchmark, each dropping its
  # machine-readable BENCH_<name>.json next to the binaries (bench_compare
  # diffs these against a baseline — docs/ci.md).
  export ANU_BENCH_JSON_DIR=build/bench
  local b
  for b in build/bench/*; do
    if [ -f "$b" ] && [ -x "$b" ]; then
      echo "=== $b ==="
      "$b"
    fi
  done
}

ALL_TIERS=(format docs lint build test integration tidy asan tsan bench)
TIERS=("$@")
if [ ${#TIERS[@]} -eq 0 ]; then
  TIERS=("${ALL_TIERS[@]}")
fi

for tier in "${TIERS[@]}"; do
  case "$tier" in
    format|docs|lint|build|test|integration|tidy|asan|tsan|bench)
      "tier_$tier"
      ;;
    all)
      for t in "${ALL_TIERS[@]}"; do "tier_$t"; done
      ;;
    *)
      echo "unknown tier: $tier (known: ${ALL_TIERS[*]} all)" >&2
      exit 2
      ;;
  esac
done
