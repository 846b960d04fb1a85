#!/usr/bin/env bash
# Single-entry correctness gate. Runs, in order:
#
#   1. ci/lint.sh                 — textual rules (no raw new/delete, no
#                                   assert(), include guards, justified
#                                   analyzer suppressions) plus the header
#                                   self-sufficiency compile
#   2. ci/analyze.sh              — whole-program static analysis (Clang
#                                   Static Analyzer when installed, GCC
#                                   -fanalyzer otherwise) with an
#                                   empty-or-justified suppression file
#   3. -Werror build + tests      — SUBDEX_WERROR=ON, SUBDEX_FUZZ=ON, plus
#                                   SUBDEX_TIDY=ON when clang-tidy exists;
#                                   also proves the [[nodiscard]] contract
#                                   via the configure-time negative
#                                   compile probe in tests/CMakeLists.txt.
#                                   The suite includes the project analyzer
#                                   (tools/subdex-lint, DESIGN.md §15):
#                                   lint_tree runs C1–C4 and L1–L4 over
#                                   src/, lint_fixtures its seeded-violation
#                                   probes, lint_layers_test the layers
#                                   parser and the inverted-edge self-test
#   4. clang thread-safety gate   — rebuild with clang++ -Wthread-safety
#                                   (the annotations are no-ops under GCC),
#                                   when clang++ exists
#   5. deadlock-detector suite    — SUBDEX_DEADLOCK_DETECTOR=ON Release
#                                   build (so -O3-only warnings fail
#                                   -Werror): the full ctest suite with
#                                   every Mutex acquisition routed through
#                                   the util/lock_graph.h lock-order
#                                   detector; any rank inversion,
#                                   same-name nesting, or acquired-after
#                                   cycle aborts a test
#   6. fuzz smoke                 — corpus replay plus a bounded mutation
#                                   run per harness (SUBDEX_FUZZ_RUNS,
#                                   default 20000)
#   7. fault injection under ASan — SUBDEX_FAULT_INJECTION=ON build; the
#                                   fault-sweep test arms every registered
#                                   fault point in turn and asserts the
#                                   engine's invariants survive
#   8. UBSan matrix               — ci/sanitize.sh undefined: the full
#                                   ctest suite and the fuzz-corpus replay
#                                   with every UB class fatal
#   9. coverage gate              — ci/coverage.sh: instrumented build,
#                                   gcov line coverage of src/core +
#                                   src/pruning against a floor
#  10. serving smoke              — ci/serve_smoke.sh: boots subdexd on a
#                                   synthetic MovieLens dataset, drives a
#                                   scripted 3-step session over HTTP,
#                                   scrapes /metrics and /healthz, and
#                                   asserts a clean SIGTERM shutdown
#  11. crash-safety smoke         — ci/crash_smoke.sh: kill-loop chaos
#                                   harness; subdexd with --journal-dir is
#                                   SIGKILLed at randomized moments and
#                                   every restart must recover sessions
#                                   with acked digests intact, zero
#                                   divergence, and torn tails truncated
#  12. load-harness smoke         — ci/bench_smoke.sh: subdex-loadgen
#                                   sweeps both targets in-process, then
#                                   drives 32 concurrent sessions against
#                                   a live subdexd; every report must pass
#                                   --validate --smoke (seed logged)
#
# Clang-only gates degrade to a loud SKIP instead of failing when the
# toolchain is GCC-only, so the script is green on any supported image
# while still enforcing everything the installed tools can check.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

BUILD="${SUBDEX_CHECK_BUILD_DIR:-build-check}"
FUZZ_RUNS="${SUBDEX_FUZZ_RUNS:-20000}"
JOBS="$(nproc)"

echo "==> [1/12] lint"
ci/lint.sh

echo "==> [2/12] static analysis"
ci/analyze.sh

echo "==> [3/12] -Werror build + tests"
TIDY=OFF
if command -v clang-tidy >/dev/null 2>&1; then
  TIDY=ON
else
  echo "SKIP: clang-tidy not installed; building without SUBDEX_TIDY"
fi
# SUBDEX_FORCE_DCHECK arms the debug invariant layer even though the
# default build type defines NDEBUG, so the test suite actually executes
# every SUBDEX_DCHECK site instead of compiling them out.
cmake -B "$BUILD" -S "$ROOT" \
  -DSUBDEX_WERROR=ON \
  -DSUBDEX_FUZZ=ON \
  -DSUBDEX_TIDY="$TIDY" \
  -DCMAKE_CXX_FLAGS="-DSUBDEX_FORCE_DCHECK=1"
cmake --build "$BUILD" -j"$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j"$JOBS"

echo "==> [4/12] clang thread-safety analysis"
if command -v clang++ >/dev/null 2>&1; then
  TS_BUILD="$BUILD-threadsafety"
  cmake -B "$TS_BUILD" -S "$ROOT" \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DSUBDEX_WERROR=ON
  # -Wthread-safety is added automatically for clang; -Werror promotes any
  # lock-discipline violation to a build break.
  cmake --build "$TS_BUILD" -j"$JOBS"
else
  echo "SKIP: clang++ not installed; thread-safety annotations not checked"
fi

echo "==> [5/12] deadlock-detector-armed suite"
# Every subdex::Mutex acquisition runs the util/lock_graph.h hooks; the
# full test suite (including the 64-session server storm) must stay
# silent: zero rank inversions, zero same-name nestings, zero cycles.
# SUBDEX_FORCE_DCHECK arms the invariant layer alongside, as in stage 3.
# Release is the build type the step benchmark uses: -O3-only warnings
# (GCC 12's -Wrestrict false positives, for one) fail here under -Werror
# instead of surfacing first in a benchmark build.
DETECTOR_BUILD="$BUILD-detector"
cmake -B "$DETECTOR_BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=Release \
  -DSUBDEX_DEADLOCK_DETECTOR=ON \
  -DSUBDEX_WERROR=ON \
  -DCMAKE_CXX_FLAGS="-DSUBDEX_FORCE_DCHECK=1"
cmake --build "$DETECTOR_BUILD" -j"$JOBS"
ctest --test-dir "$DETECTOR_BUILD" --output-on-failure -j"$JOBS"

echo "==> [6/12] fuzz smoke ($FUZZ_RUNS runs per harness)"
for harness in fuzz_query_parser fuzz_csv_loader fuzz_db_io; do
  corpus="$ROOT/fuzz/corpus/${harness#fuzz_}"
  bin="$BUILD/fuzz/$harness"
  if [[ ! -x "$bin" ]]; then
    echo "ERROR: expected fuzz binary is missing: $bin" >&2
    exit 1
  fi
  echo "--- $harness"
  # Flag spelling works for both drivers: the standalone replay driver and
  # libFuzzer each accept --runs/--seed and positional corpus directories.
  "$bin" --runs="$FUZZ_RUNS" --seed=1 "$corpus"
done

echo "==> [7/12] fault injection under ASan"
FAULT_BUILD="$BUILD-fault"
cmake -B "$FAULT_BUILD" -S "$ROOT" \
  -DSUBDEX_FAULT_INJECTION=ON \
  -DSUBDEX_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$FAULT_BUILD" -j"$JOBS" \
  --target fault_injection_test engine_robustness_test
for t in fault_injection_test engine_robustness_test; do
  bin="$FAULT_BUILD/tests/$t"
  if [[ ! -x "$bin" ]]; then
    echo "ERROR: expected test binary is missing: $bin" >&2
    exit 1
  fi
  echo "--- $t (fault injection, ASan)"
  "$bin"
done

echo "==> [8/12] UBSan matrix (full suite + corpus replay)"
ci/sanitize.sh undefined

echo "==> [9/12] coverage gate"
SUBDEX_COVERAGE_BUILD_DIR="$BUILD-coverage" ci/coverage.sh

echo "==> [10/12] serving smoke (subdexd end-to-end)"
SUBDEX_SMOKE_BUILD_DIR="$BUILD" ci/serve_smoke.sh

echo "==> [11/12] crash-safety smoke (kill-loop journal recovery)"
SUBDEX_CRASH_BUILD_DIR="$BUILD-crash" ci/crash_smoke.sh

echo "==> [12/12] load-harness smoke (subdex-loadgen vs live subdexd)"
SUBDEX_BENCH_BUILD_DIR="$BUILD" ci/bench_smoke.sh

echo "check: OK"
