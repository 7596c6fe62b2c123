#!/usr/bin/env bash
# The paper tables as a diffable gate: runs the 11 paper benches (Fig. 1,
# Tables II/III/V-VI/VII/VIII/IX/X/XI, Fig. 4 and the meta ablation) and
# diffs each one's stdout against its golden in bench/goldens/. The benches
# print no timings, so their stdout is deterministic at the canonical
# configuration (METABLINK_SCALE / METABLINK_SEED unset).
#
# Opt-in and outside ctest: the whole set takes minutes, not seconds.
#
# Usage: tools/tables.sh [-j N] [-b BUILD_DIR] [-u]
#   -j N          benches run N at a time (default 2)
#   -b BUILD_DIR  a configured and built tree (default build/)
#   -u            rewrite the goldens from this run instead of diffing
#
# Exits 0 when every bench ran and matched its golden, 1 otherwise, after
# printing a unified diff per mismatch. A change that moves scores on
# purpose re-records the goldens (-u) in the same commit and lists every
# changed row in CHANGES.md.

set -u -o pipefail

cd "$(dirname "$0")/.."
JOBS=2
BUILD=build
UPDATE=0
while getopts "j:b:u" opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    b) BUILD="$OPTARG" ;;
    u) UPDATE=1 ;;
    *) sed -n '2,18p' "$0"; exit 2 ;;
  esac
done

BENCHES=(bench_fig1_degradation bench_table2_error_cases
         bench_table3_dataset_stats bench_table5_6_fewshot
         bench_table7_zeroshot bench_table8_gap bench_table9_sources
         bench_fig4_meta_selection bench_table10_rewriting
         bench_table11_rouge bench_ablation_meta)
GOLDENS=bench/goldens
OUT="$(mktemp -d "${TMPDIR:-/tmp}/tables.XXXXXX")"
trap 'rm -rf "$OUT"' EXIT
unset METABLINK_SCALE METABLINK_SEED

for b in "${BENCHES[@]}"; do
  if [[ ! -x "$BUILD/bench/$b" ]]; then
    echo "missing $BUILD/bench/$b: build the tree first" >&2
    exit 1
  fi
done

start=$(date +%s)
printf '%s\n' "${BENCHES[@]}" |
  xargs -P "$JOBS" -I{} sh -c \
    '"$1/bench/$2" > "$3/$2.txt" 2> "$3/$2.err"; echo $? > "$3/$2.rc"' \
    _ "$BUILD" {} "$OUT"
wall=$(( $(date +%s) - start ))

ok=1
for b in "${BENCHES[@]}"; do
  rc="$(cat "$OUT/$b.rc")"
  if [[ "$rc" != 0 ]]; then
    echo "FAIL $b exited $rc" >&2
    tail -5 "$OUT/$b.err" >&2
    ok=0
  elif [[ "$UPDATE" == 1 ]]; then
    mkdir -p "$GOLDENS"
    cp "$OUT/$b.txt" "$GOLDENS/$b.txt"
    echo "recorded $GOLDENS/$b.txt"
  elif diff -u "$GOLDENS/$b.txt" "$OUT/$b.txt"; then
    echo "PASS $b"
  else
    echo "FAIL $b differs from $GOLDENS/$b.txt"
    ok=0
  fi
done
echo "tables: ${#BENCHES[@]} benches, -j $JOBS, ${wall}s wall"
[[ "$ok" == 1 ]]
