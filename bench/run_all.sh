#!/usr/bin/env bash
# Runs every bench_* binary from a build tree in --json mode and
# aggregates the per-scenario records into one JSON document, so the
# perf trajectory can be tracked across commits.
#
#   bench/run_all.sh [BUILD_DIR] [OUT_FILE]
#
# Defaults: BUILD_DIR=build, OUT_FILE=BENCH_search.json. The batch
# engine scenarios (bench_batch) are additionally split into their own
# BATCH_OUT (default BENCH_batch.json, next to OUT_FILE), and the
# static analyzer scenarios (bench_analyze) into ANALYZE_OUT (default
# BENCH_analyze.json), and the serve-layer scenarios (bench_serve) into
# SERVE_OUT (default BENCH_serve.json), and the native compile-and-run
# scenarios (bench_native) into NATIVE_OUT (default BENCH_native.json),
# so each throughput trajectory can be tracked on its own. Extra benchmark flags can be passed via IRLT_BENCH_ARGS
# (e.g. IRLT_BENCH_ARGS=--benchmark_min_time=0.01 for a quick pass).
#
# OUT carries both legality-vs-sequence-length series from
# bench_fig2_legality: BM_LegalityVsSequenceLength (the prefix-memoized
# engine behind isLegal) and BM_LegalityVsSequenceLengthLegacy (the
# uncached whole-sequence walk) - their ratio tracks the incremental
# engine's payoff across commits.
set -u

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_search.json}"
BATCH_OUT="${3:-$(dirname "$OUT")/BENCH_batch.json}"
ANALYZE_OUT="${4:-$(dirname "$OUT")/BENCH_analyze.json}"
SERVE_OUT="${5:-$(dirname "$OUT")/BENCH_serve.json}"
NATIVE_OUT="${6:-$(dirname "$OUT")/BENCH_native.json}"
FRONT_OUT="${7:-$(dirname "$OUT")/BENCH_front.json}"
DEPS_OUT="${8:-$(dirname "$OUT")/BENCH_deps.json}"
BENCH_DIR="$BUILD_DIR/bench"

# Every suite bench/CMakeLists.txt builds. A missing binary aborts the
# run instead of being skipped (a skipped suite once left its BENCH file
# uncommitted for a whole release), and so does a bench_* binary this
# list does not name: add new suites here.
SUITES="bench_table1_templates bench_table2_depmap bench_table3_bounds
  bench_table4_block bench_fig1_stencil bench_fig2_legality
  bench_fig5_boundsrep bench_fig7_matmul bench_c1_revperm_vs_unimodular
  bench_c2_trapezoid_tiles bench_c3_composition bench_c4_fanout
  bench_search bench_batch bench_serve bench_front bench_analyze
  bench_native bench_deps"

for NAME in $SUITES; do
  if [ ! -x "$BENCH_DIR/$NAME" ]; then
    echo "error: expected suite $NAME is missing under $BENCH_DIR" \
      "(build first?); aborting without writing $OUT" >&2
    exit 1
  fi
done
for BIN in "$BENCH_DIR"/bench_*; do
  [ -x "$BIN" ] || continue
  case " $(echo $SUITES) " in
  *" $(basename "$BIN") "*) ;;
  *)
    echo "error: $(basename "$BIN") is not in run_all.sh's suite list;" \
      "aborting without writing $OUT" >&2
    exit 1
    ;;
  esac
done

TMP="$(mktemp)"
BATCH_TMP="$(mktemp)"
ANALYZE_TMP="$(mktemp)"
SERVE_TMP="$(mktemp)"
NATIVE_TMP="$(mktemp)"
FRONT_TMP="$(mktemp)"
DEPS_TMP="$(mktemp)"
trap 'rm -f "$TMP" "$BATCH_TMP" "$ANALYZE_TMP" "$SERVE_TMP" "$NATIVE_TMP" "$FRONT_TMP" "$DEPS_TMP"' EXIT

# Fail fast: a partial aggregate would silently skew any perf-trajectory
# comparison, so the first failing binary aborts the run and OUT is left
# untouched.
for NAME in $SUITES; do
  BIN="$BENCH_DIR/$NAME"
  echo "running $NAME..." >&2
  DEST="$TMP"
  [ "$NAME" = bench_batch ] && DEST="$BATCH_TMP"
  [ "$NAME" = bench_analyze ] && DEST="$ANALYZE_TMP"
  [ "$NAME" = bench_serve ] && DEST="$SERVE_TMP"
  [ "$NAME" = bench_native ] && DEST="$NATIVE_TMP"
  [ "$NAME" = bench_front ] && DEST="$FRONT_TMP"
  [ "$NAME" = bench_deps ] && DEST="$DEPS_TMP"
  if ! "$BIN" --json ${IRLT_BENCH_ARGS:-} >>"$DEST"; then
    echo "error: $NAME failed; aborting without writing $OUT" >&2
    exit 1
  fi
done

# Wraps JSON lines from $2 into a single document named $1 at $3.
wrap() {
  {
    printf '{\n  "suite": "%s",\n  "results": [\n' "$1"
    FIRST=1
    while IFS= read -r LINE; do
      [ -n "$LINE" ] || continue
      if [ "$FIRST" -eq 1 ]; then FIRST=0; else printf ',\n'; fi
      printf '    %s' "$LINE"
    done <"$2"
    printf '\n  ]\n}\n'
  } >"$3"
  echo "wrote $3" >&2
}

wrap irlt-bench "$TMP" "$OUT"
if [ -s "$BATCH_TMP" ]; then
  wrap irlt-bench-batch "$BATCH_TMP" "$BATCH_OUT"
fi
if [ -s "$ANALYZE_TMP" ]; then
  wrap irlt-bench-analyze "$ANALYZE_TMP" "$ANALYZE_OUT"
fi
if [ -s "$SERVE_TMP" ]; then
  wrap irlt-bench-serve "$SERVE_TMP" "$SERVE_OUT"
fi
if [ -s "$NATIVE_TMP" ]; then
  wrap irlt-bench-native "$NATIVE_TMP" "$NATIVE_OUT"
fi
if [ -s "$FRONT_TMP" ]; then
  wrap irlt-bench-front "$FRONT_TMP" "$FRONT_OUT"
fi
if [ -s "$DEPS_TMP" ]; then
  wrap irlt-bench-deps "$DEPS_TMP" "$DEPS_OUT"
fi
