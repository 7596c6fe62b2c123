#!/usr/bin/env bash
# Full local CI matrix: builds and tests metablink under every supported
# hardening configuration, then runs the static analyzers.
#
# Stages (each build in its own tree, so they never poison each other):
#   0. lint       — no libm tanh call (std::tanh, tanhf, tanh, ::tanh or
#                   __builtin_tanh, outside // comments) in src/ except
#                   tensor/kernels.cc, whose tensor::Tanh is the one tanh of
#                   every forward pass: a libm call would tie scores to the
#                   host's libm again and could break tape/tape-free bit
#                   parity on another host
#   1. default    — RelWithDebInfo build + full ctest suite, including the
#                   label "smoke" bench gates (bench_serving --smoke and
#                   --cascade-smoke, bench_retrieval --smoke:
#                   tape/tape-free parity; the two-tier cascade's (exit or
#                   head rerank) off and forced-full-head byte identity,
#                   tier accounting and accuracy delta; probe-all ==
#                   exhaustive,
#                   PQ full-pool parity, deterministic rebuilds, PQ bytes;
#                   bench_checkpoint --smoke: checkpoint round-trip and
#                   kill/resume bit-identity, and the hot-swap hammer where
#                   every Link must succeed and every swap publish;
#                   bench_traffic --smoke: generator determinism across
#                   runs/seeds, Zipf skew + LRU hit-rate ordering, open-loop
#                   pacing, max_queue=0 byte identity, and both shed
#                   policies reconciling their admission ledgers under an
#                   8-thread hammer; bench_perf_substrate --smoke: every
#                   featurized mention bag equals the string-building
#                   reference hasher's and every block-reranked score equals
#                   the tape's CrossEncoder::Score, bit for bit;
#                   bench_fig4_meta_selection --smoke: the
#                   paper's Fig. 4 shape, normal synthetic data selected
#                   more often than injected bad data)
#   2. asan-ubsan — METABLINK_SANITIZE=address,undefined build + full ctest
#   3. tsan       — METABLINK_SANITIZE=thread build + full ctest, then
#                   serve_test's concurrency tests again, ten times over
#                   (--gtest_filter='*Interleave*:*Hammer*:*LoneMiss*'
#                   --gtest_repeat=10): the hand-off of the serving scratch
#                   between the scheduler and callers that serve a lone miss
#                   themselves races rarely, so it gets more chances to show
#   4. clang-tidy — bugprone/performance/concurrency checks over src/
#                   (SKIPped when clang-tidy is not installed)
#   5. graphlint  — the analyzer self-checks: analysis_test (GraphLint
#                   seeded-defect fixtures + WriteSetChecker) from stage 1's
#                   tree, rerun explicitly so a filtered ctest cannot hide it
#
# Fails fast: the first failing stage stops the run; a summary table of
# per-stage PASS/FAIL/SKIP status is always printed on exit.
#
# Usage: tools/check.sh [jobs]   (default: nproc)

set -u -o pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

STAGES=(lint default asan-ubsan tsan clang-tidy graphlint)
declare -A STATUS
for s in "${STAGES[@]}"; do STATUS[$s]="not run"; done

summary() {
  echo
  echo "== check.sh summary =="
  printf '%-12s %s\n' "stage" "status"
  printf '%-12s %s\n' "-----" "------"
  for s in "${STAGES[@]}"; do
    printf '%-12s %s\n' "$s" "${STATUS[$s]}"
  done
}
trap summary EXIT

fail() {
  STATUS[$1]="FAIL"
  echo "check.sh: stage '$1' failed" >&2
  exit 1
}

build_and_test() {
  local stage="$1" dir="$2"
  shift 2
  echo
  echo "== stage: $stage ($dir) =="
  cmake -B "$dir" -S . "$@" || fail "$stage"
  cmake --build "$dir" -j "$JOBS" || fail "$stage"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS") || fail "$stage"
  STATUS[$stage]="PASS"
}

echo
echo "== stage: lint =="
# Code only: the text after // on each line is dropped before matching.
LIBM_TANH='std::tanh|(^|[^[:alnum:]_])tanhf?[[:space:]]*[(]|__builtin_tanh'
find src \( -name '*.h' -o -name '*.cc' \) ! -path src/tensor/kernels.cc \
    -print0 | sort -z | xargs -0 awk -v re="$LIBM_TANH" '
  { code = $0; sub(/\/\/.*/, "", code) }
  code ~ re { print FILENAME ":" FNR ": " $0; bad = 1 }
  END { exit bad }' || {
  echo "libm tanh in src/: call tensor::Tanh (tensor/kernels.h) instead" >&2
  fail lint
}
STATUS[lint]="PASS"

build_and_test default build-check-default

build_and_test asan-ubsan build-check-asan-ubsan \
  "-DMETABLINK_SANITIZE=address,undefined"

build_and_test tsan build-check-tsan "-DMETABLINK_SANITIZE=thread"
echo
echo "== stage: tsan (serve_test concurrency tests, repeated) =="
./build-check-tsan/tests/serve_test \
  --gtest_filter='*Interleave*:*Hammer*:*LoneMiss*' --gtest_repeat=10 \
  || fail tsan

echo
echo "== stage: clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  # Stage 1's tree provides the compilation database.
  cmake -B build-check-default -S . \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null || fail clang-tidy
  mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
  clang-tidy -p build-check-default "${TIDY_SOURCES[@]}" || fail clang-tidy
  STATUS[clang-tidy]="PASS"
else
  echo "clang-tidy not installed; skipping"
  STATUS[clang-tidy]="SKIP"
fi

echo
echo "== stage: graphlint =="
# Explicit analyzer self-check: GraphLint seeded-defect fixtures, the
# WriteSetChecker race fixtures, and the instrumented-kernel proofs.
./build-check-default/tests/analysis_test || fail graphlint
STATUS[graphlint]="PASS"

echo
echo "check.sh: all stages passed (or were skipped)"
