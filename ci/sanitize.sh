#!/usr/bin/env bash
# Builds and runs tests under a sanitizer.
#
# Usage: ci/sanitize.sh [thread|address|undefined]   (default: thread)
#
#   thread     ThreadSanitizer over the threading-sensitive test binaries
#              (util, engine, group cache, robustness, metrics, golden,
#              server, server stress, plus subjective, whose group
#              materialization gathers rating lists by index and runs on
#              pool workers, and core and pruning, whose scans keep
#              code-indexed flat counts, index arithmetic ASan checks too):
#              concurrent ParallelFor batches, nested batches, the
#              sharded metrics Counter, the step trace and the per-phase
#              histograms fed from it,
#              single-flight group-cache materialization, the subdexd
#              session storm (64 concurrent HTTP sessions over sharded
#              session state), the SessionManager churn /
#              Stop-mid-flight stress, the loadgen driver (shared
#              LatencyRecorder + concurrent session workers against a live
#              server), and the same-seed concurrent-subject determinism
#              pair. Runs with TSan's native deadlock
#              detection armed (detect_deadlocks=1, second_deadlock_stack=1)
#              so runtime lock-order inversions are caught here — the
#              second, independent path next to the util/lock_graph.h
#              detector, which stays UNARMED under TSan on purpose: its
#              internal spinlock would add happens-before edges that mask
#              the very races TSan exists to find.
#   address    ASan + default UBSan over the same binaries, plus a replay
#              of the committed fuzz corpora through every harness, so
#              every past fuzzer finding stays covered under sanitizers.
#   undefined  The strict UBSan matrix (DESIGN.md §10): the FULL ctest
#              suite and the fuzz-corpus replay under
#              -fsanitize=undefined,float-divide-by-zero (plus the
#              integer / implicit-conversion / nullability groups under
#              Clang) with -fno-sanitize-recover=all, so any UB class —
#              signed overflow in CI bound math, misaligned loads, lossy
#              float-to-int bucketing — aborts the run instead of
#              corrupting results.
set -euo pipefail

SAN="${1:-thread}"
case "$SAN" in
  thread|address|undefined) ;;
  *) echo "usage: $0 [thread|address|undefined]" >&2; exit 2 ;;
esac

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-$SAN"
JOBS="$(nproc)"

if [[ "$SAN" == "thread" ]]; then
  # TSan's built-in deadlock detector: lock-order inversions abort the
  # run, and second_deadlock_stack shows BOTH conflicting acquisition
  # stacks. Callers can append their own options after ours.
  export TSAN_OPTIONS="detect_deadlocks=1:second_deadlock_stack=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}"
fi

TEST_BINS=(util_test subjective_test core_test pruning_test engine_test
           group_cache_test engine_robustness_test metrics_test golden_test
           server_test server_stress_test framed_log_test session_journal_test
           loadgen_test study_determinism_test)
FUZZ_BINS=(fuzz_query_parser fuzz_csv_loader fuzz_db_io)

# A renamed or never-built binary must fail the gate loudly, not be skipped.
run_checked() {
  local bin="$1"
  shift
  if [[ ! -x "$bin" ]]; then
    echo "ERROR: expected binary is missing: $bin" >&2
    exit 1
  fi
  "$bin" "$@"
}

replay_corpora() {
  for harness in "${FUZZ_BINS[@]}"; do
    corpus="$ROOT/fuzz/corpus/${harness#fuzz_}"
    echo "=== $harness corpus replay ($SAN) ==="
    run_checked "$BUILD/fuzz/$harness" --runs=2000 --seed=1 "$corpus"
  done
}

if [[ "$SAN" == "undefined" ]]; then
  # Whole-suite mode: every test and every committed fuzz input runs with
  # all UB checks fatal.
  cmake -B "$BUILD" -S "$ROOT" \
    -DSUBDEX_SANITIZE=undefined \
    -DSUBDEX_FUZZ=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS"
  ctest --test-dir "$BUILD" --output-on-failure -j"$JOBS"
  replay_corpora
  echo "All sanitized tests passed ($SAN)."
  exit 0
fi

FUZZ_FLAG=OFF
TARGETS=("${TEST_BINS[@]}")
if [[ "$SAN" == "address" ]]; then
  FUZZ_FLAG=ON
  TARGETS+=("${FUZZ_BINS[@]}")
fi

cmake -B "$BUILD" -S "$ROOT" \
  -DSUBDEX_SANITIZE="$SAN" \
  -DSUBDEX_FUZZ="$FUZZ_FLAG" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j"$JOBS" --target "${TARGETS[@]}"

for test_bin in "${TEST_BINS[@]}"; do
  echo "=== $test_bin ($SAN) ==="
  run_checked "$BUILD/tests/$test_bin"
done

if [[ "$SAN" == "address" ]]; then
  replay_corpora
fi
echo "All sanitized tests passed ($SAN)."
