#!/usr/bin/env bash
# Fixture suite for subdex-lint (DESIGN.md §15): every rule ships a
# seeded-violation tree and a clean twin. A bad tree must FAIL with
# exactly the diagnostics its `expect` file names (rule id + count) and a
# clean tree must PASS: a checker whose failure mode is never exercised
# can rot into a silent yes without anyone noticing. The ctest
# `lint_fixtures` runs this; `lint_tree` runs the same binary over src/.
#
# Usage: run_fixtures.sh <subdex-lint binary> [fixtures dir]
set -u

bin=${1:?usage: run_fixtures.sh <subdex-lint binary> [fixtures dir]}
fixtures=${2:-"$(cd "$(dirname "$0")" && pwd)/fixtures"}

fail=0

note() { printf '%s\n' "$*"; }

for dir in "$fixtures"/*/; do
  rule=$(basename "$dir")
  [ "$rule" = layers ] && continue
  RULE=$(printf '%s' "$rule" | tr '[:lower:]' '[:upper:]')

  # Bad tree: must exit 1 with exactly the expected per-rule counts.
  out=$("$bin" --root "$dir/bad" \
        $( [ -f "$dir/bad/layers.txt" ] && printf -- '--layers %s' "$dir/bad/layers.txt" ) \
        --rules "$RULE" 2>&1)
  status=$?
  if [ "$status" -ne 1 ]; then
    note "FAIL [$RULE] bad fixture: exit $status (want 1)"
    note "$out"
    fail=1
  else
    while read -r want_rule want_count; do
      got=$(printf '%s\n' "$out" | grep -c "\[$want_rule\]")
      if [ "$got" -ne "$want_count" ]; then
        note "FAIL [$RULE] bad fixture: $got [$want_rule] diagnostic(s), want $want_count"
        note "$out"
        fail=1
      fi
    done < "$dir/bad/expect"
    # Exactness both ways: no finding outside the expected rule id.
    stray=$(printf '%s\n' "$out" | grep -E '^\S+:[0-9]+: \[' | grep -vc "\[$RULE\]")
    if [ "$stray" -ne 0 ]; then
      note "FAIL [$RULE] bad fixture: $stray diagnostic(s) under other rule ids"
      note "$out"
      fail=1
    fi
  fi

  # Clean twin: must exit 0 under the same rule.
  out=$("$bin" --root "$dir/clean" \
        $( [ -f "$dir/clean/layers.txt" ] && printf -- '--layers %s' "$dir/clean/layers.txt" ) \
        --rules "$RULE" 2>&1)
  status=$?
  if [ "$status" -ne 0 ]; then
    note "FAIL [$RULE] clean fixture: exit $status (want 0)"
    note "$out"
    fail=1
  fi
done

# Layers-file probes: the cycle detector must reject a cyclic graph and
# accept an acyclic one.
if "$bin" --validate-layers "$fixtures/layers/cyclic.txt" >/dev/null 2>&1; then
  note "FAIL [layers] cyclic.txt validated (cycle detector is blind)"
  fail=1
fi
if ! out=$("$bin" --validate-layers "$fixtures/layers/acyclic.txt" 2>&1); then
  note "FAIL [layers] acyclic.txt rejected:"
  note "$out"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  note "lint fixtures: FAILED"
  exit 1
fi
note "lint fixtures: OK"
