#!/usr/bin/env bash
# End-to-end test of the ipin_runs ledger inspector: list/show rendering
# and the diff gate's exit codes, against real ledgers produced by
# ipin_cli. Works in both obs build modes — the run ledger itself is never
# compiled out; only the phase/pool tables are empty under obs-disabled.
#
# Usage: ipin_runs_test.sh <ipin_runs> <ipin_cli> <obs-mode>

set -euo pipefail

RUNS=$1
CLI=$2
OBS_MODE="${3:-obs-enabled}"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# --- fixtures: two real runs of the same build command --------------------
"$CLI" generate --dataset=slashdot --scale=0.01 --out="$WORK/net.txt" \
  > /dev/null 2>&1
"$CLI" build-index --in="$WORK/net.txt" --out="$WORK/a.bin" --threads=1 \
  --ledger_dir="$WORK/ledgers" > /dev/null 2>&1
"$CLI" build-index --in="$WORK/net.txt" --out="$WORK/b.bin" --threads=2 \
  --ledger_dir="$WORK/ledgers" > /dev/null 2>&1

LEDGERS=("$WORK"/ledgers/*.ipinrun)
[[ ${#LEDGERS[@]} -eq 2 ]] || fail "expected 2 ledgers, got ${#LEDGERS[@]}"
A=${LEDGERS[0]}
B=${LEDGERS[1]}

# --- list ------------------------------------------------------------------
"$RUNS" list "$WORK/ledgers" > "$WORK/list.out" \
  || fail "list exited nonzero"
[[ $(grep -c 'build-index' "$WORK/list.out") -eq 2 ]] \
  || fail "list should show both build-index runs"
grep -q 'ok' "$WORK/list.out" || fail "list should show the outcome"
"$RUNS" list "$WORK/no_such_dir" > /dev/null 2>&1 \
  && fail "list of a missing directory should exit nonzero"

# --- show ------------------------------------------------------------------
"$RUNS" show "$A" > "$WORK/show.out" || fail "show exited nonzero"
grep -q 'tool.*ipin_cli' "$WORK/show.out" || fail "show missing tool"
grep -q 'outcome.*ok' "$WORK/show.out" || fail "show missing outcome"
grep -q 'net.txt' "$WORK/show.out" || fail "show missing the input file"
grep -q 'a.bin' "$WORK/show.out" || fail "show missing the output file"
grep -q 'git' "$WORK/show.out" || fail "show missing provenance"
if [ "$OBS_MODE" = "obs-enabled" ]; then
  grep -q 'graph.parse' "$WORK/show.out" \
    || fail "show missing the graph.parse phase"
  grep -q 'irs.' "$WORK/show.out" || fail "show missing the IRS scan phase"
  grep -q 'oracle_io.save' "$WORK/show.out" \
    || fail "show missing the index save phase"
  grep -q 'irs.approx.free' "$WORK/show.out" \
    || fail "show missing the index teardown phase"
fi

# Opening an index has its own phases: the load (read, verify, parse) and
# the seal into the query arena.
"$CLI" topk --index="$WORK/a.bin" --k=3 --ledger_dir="$WORK/open_ledgers" \
  > /dev/null 2>&1 || fail "topk on the built index failed"
OPEN_LEDGERS=("$WORK"/open_ledgers/*.ipinrun)
[[ ${#OPEN_LEDGERS[@]} -eq 1 ]] || fail "expected 1 topk ledger"
"$RUNS" show "${OPEN_LEDGERS[0]}" > "$WORK/show_open.out" \
  || fail "show of the topk ledger exited nonzero"
if [ "$OBS_MODE" = "obs-enabled" ]; then
  grep -q 'oracle_io.load' "$WORK/show_open.out" \
    || fail "show missing the index load phase"
  grep -q 'irs.approx.seal' "$WORK/show_open.out" \
    || fail "show missing the seal phase"
fi

# --- diff ------------------------------------------------------------------
# A ledger diffed against itself has zero deltas: exit 0.
"$RUNS" diff "$A" "$A" > "$WORK/diff_same.out" \
  || fail "self-diff should exit 0"
grep -q 'total.wall' "$WORK/diff_same.out" \
  || fail "diff should report total wall time"
# A negative threshold turns the zero delta into a regression: exit 1.
set +e
"$RUNS" diff "$A" "$A" --threshold=-0.01 > "$WORK/diff_reg.out"
rc=$?
set -e
[[ $rc -eq 1 ]] || fail "self-diff with negative threshold should exit 1"
grep -q 'REGRESSED' "$WORK/diff_reg.out" \
  || fail "regressed rows should be marked"
# Two different runs still diff cleanly with a generous threshold (timing
# noise between two tiny builds can be large in relative terms).
"$RUNS" diff "$A" "$B" --threshold=1000 > "$WORK/diff_ab.out" \
  || fail "cross-run diff with huge threshold should exit 0"

# --- corrupt / missing inputs exit 2 --------------------------------------
set +e
"$RUNS" diff "$A" "$WORK/ledgers/absent.ipinrun" 2>/dev/null
[[ $? -eq 2 ]] || fail "diff against a missing ledger should exit 2"
head -c 24 "$A" > "$WORK/truncated.ipinrun"
"$RUNS" show "$WORK/truncated.ipinrun" 2>/dev/null
[[ $? -eq 2 ]] || fail "show of a truncated ledger should exit 2"
"$RUNS" frobnicate 2>/dev/null
[[ $? -eq 2 ]] || fail "unknown command should exit 2 with usage"
set -e

echo "ipin_runs_test: all checks passed"
