#!/usr/bin/env bash
# Lint for src/: the textual rules no other checker covers, plus one cheap
# compile pass.
#
#   1. No raw operator new/delete — ownership goes through containers and
#      smart pointers (deleted special members, `= delete`, are fine).
#   2. No C assert() — invariants use SUBDEX_CHECK / SUBDEX_DCHECK so they
#      are formatted, and policy-controlled (static_assert is fine).
#   3. Every header carries a SUBDEX_ include guard near the top.
#   4. Analyzer suppressions (ci/analyzer_suppressions.txt) each carry a
#      justification comment directly above the entry.
#   5. Includes hygiene: every header in src/ is self-sufficient — a TU
#      holding only `#include "<header>"` compiles standalone.
#
# Lock discipline, layering, deadlines, wire input, discards and metric
# names are subdex-lint's rules (tools/subdex-lint, DESIGN.md §15); the
# `lint_tree` ctest runs them.
#
# Run from anywhere; ci/check.sh runs this first (it is the fastest gate).
set -uo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

fail=0

# Rule 1: raw allocation expressions. Anchor on the contexts where an
# operator-new expression can appear so prose in comments ("a new table")
# stays unflagged.
hits=$(grep -rnE '([=(,]|return)[[:space:]]*new[[:space:]]+[A-Za-z_]' \
         src --include='*.cc' --include='*.h' || true)
if [[ -n "$hits" ]]; then
  echo "lint: raw 'new' expression (use containers / make_unique):" >&2
  echo "$hits" >&2
  fail=1
fi
hits=$(grep -rnE '\bdelete(\[\])?[[:space:]]+[A-Za-z_*(]' \
         src --include='*.cc' --include='*.h' | grep -vE '=[[:space:]]*delete' || true)
if [[ -n "$hits" ]]; then
  echo "lint: raw 'delete' expression:" >&2
  echo "$hits" >&2
  fail=1
fi

# Rule 2: C assert. static_assert and *_assert identifiers are allowed.
hits=$(grep -rnE '(^|[^_[:alnum:]])assert\(' \
         src --include='*.cc' --include='*.h' || true)
if [[ -n "$hits" ]]; then
  echo "lint: C assert() (use SUBDEX_CHECK / SUBDEX_DCHECK):" >&2
  echo "$hits" >&2
  fail=1
fi

# Rule 3: include guards.
while IFS= read -r header; do
  if ! head -5 "$header" | grep -q '#ifndef SUBDEX_'; then
    echo "lint: missing SUBDEX_ include guard: $header" >&2
    fail=1
  fi
done < <(find src -name '*.h')

# Rule 4: every active analyzer suppression has a justification comment
# directly above it (the empty-or-justified policy of ci/analyze.sh).
SUPP="ci/analyzer_suppressions.txt"
if [[ -f "$SUPP" ]]; then
  prev=""
  while IFS= read -r line; do
    if [[ "$line" =~ ^[[:space:]]*$ || "$line" =~ ^[[:space:]]*# ]]; then
      prev="$line"
      continue
    fi
    if [[ ! "$prev" =~ ^[[:space:]]*# ]]; then
      echo "lint: analyzer suppression without a justification comment" \
           "directly above it: $line" >&2
      fail=1
    fi
    prev="$line"
  done < "$SUPP"
fi

# Rule 5: header self-sufficiency. Generate `#include "<h>"` TUs and
# syntax-check them; a header that leans on its includer's includes fails.
CXX="${CXX:-c++}"
hygiene_dir="$(mktemp -d)"
trap 'rm -rf "$hygiene_dir"' EXIT
while IFS= read -r header; do
  rel="${header#src/}"
  tu="$hygiene_dir/$(echo "$rel" | tr / _).cc"
  printf '#include "%s"\n' "$rel" > "$tu"
done < <(find src -name '*.h')
if ! find "$hygiene_dir" -name '*.cc' -print0 \
   | xargs -0 -P "$(nproc)" -I{} "$CXX" -std=c++20 -I src -fsyntax-only \
       -Wall -Wextra {} 2> "$hygiene_dir/errors.log"; then
  echo "lint: header not self-sufficient (compile each src/**/*.h" \
       "standalone):" >&2
  cat "$hygiene_dir/errors.log" >&2
  fail=1
fi

if [[ "$fail" -ne 0 ]]; then
  echo "lint: FAILED" >&2
  exit 1
fi
echo "lint: OK"
