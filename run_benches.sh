#!/bin/sh
# Regenerate every paper table/figure plus the extensions; used to produce
# bench_output.txt referenced by EXPERIMENTS.md.
#
# Usage:
#   ./run_benches.sh                  # full set
#   ./run_benches.sh --quick          # fast smoke subset (CI)
#   ./run_benches.sh --trace          # also capture per-bench Chrome traces
#   ./run_benches.sh --serve          # sweep-service smoke: Fig. 8 --quick
#                                     # through a local ffet_serve daemon,
#                                     # gated on QoR identity + cache hits
#   ./run_benches.sh bench_fig10 ...  # only the named benches (unknown
#                                     # names are an error, not a skip)
#
# Every bench appends one "ffet.ledger.v1" line (kind=bench,
# wall time + peak RSS, recorded even when the bench fails) to the run
# ledger, and the flows inside the benches append their own kind=flow
# lines; `ffet_report history` / `ffet_report trend` read that history.
# FFET_LEDGER controls the path (unset here defaults to
# .ffet_ledger/ledger.jsonl; set FFET_LEDGER=0 to disable).
# bench_router additionally writes BENCH_router.json (the router's
# negotiation loop at four capacity regimes); the committed copy is the baseline CI's quick-bench regression gate diffs
# against (ffet_report diff --mode router).
# bench_scale writes BENCH_scale.json (workload-mesh scaling series:
# per-stage cells/sec + peak RSS from ~10k to 1M+ cells); the committed
# copy is the reference series, and CI's `ffet_report trend --rss-rise`
# soft gate watches the quick points' peak RSS in the run ledger.  With
# --trace each bench additionally writes trace_<bench>.json (Chrome
# trace-event format — load in chrome://tracing or https://ui.perfetto.dev)
# and appends per-point flow reports to flow_reports.jsonl.  Benches that
# run no flow points (bench_table1/fig4/table2 print library/rule-deck
# tables directly) legitimately produce tiny or no trace files and no
# flow-report lines.
set -e
cd "$(dirname "$0")"

FULL="bench_table1 bench_fig4 bench_table2 bench_fig8 bench_fig9 \
      bench_fig10 bench_fig11 bench_table3 bench_fig12 bench_fig13 \
      bench_ablation bench_cost_extension bench_router bench_eco \
      bench_scale"
QUICK="bench_table1 bench_fig4 bench_table2 bench_eco bench_scale"

trace=0
quick=0
serve=0
named=""
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    --trace) trace=1 ;;
    --serve) serve=1 ;;
    *) named="$named $arg" ;;
  esac
done

# A named bench must exist: an unknown name (a typo, or a bench that was
# renamed) used to fall through to "./build/bench/<name>: not found" buried
# in the output — and, worse, a name list that matched *nothing* ran zero
# benches and exited 0.  Skipped-by-filter must never read as passed.
for b in $named; do
  case " $FULL " in
    *" $b "*) ;;
    *) echo "run_benches.sh: unknown bench '$b'" >&2
       echo "known benches:$(echo '' $FULL)" >&2
       exit 2 ;;
  esac
done

# Bench-name filtering and --quick compose: a named list picks *which*
# benches run, --quick independently picks *how* they run.  Earlier
# revisions dropped the quick flag (and with it the router artifacts) as
# soon as a bench list was named.
if [ -n "$named" ]; then
  benches=$named
elif [ "$serve" = 1 ] && [ "$quick" = 0 ]; then
  benches=""     # bare --serve runs just the service smoke
elif [ "$quick" = 1 ]; then
  benches=$QUICK
else
  benches=$FULL
fi

# Resolve the run-ledger path with the same semantics as the flow
# (flow::resolve_ledger_path): unset/empty here defaults the ledger ON.
case "${FFET_LEDGER-1}" in
  ""|0) LEDGER="" ;;
  1)    LEDGER=".ffet_ledger/ledger.jsonl" ;;
  *)    LEDGER="$FFET_LEDGER" ;;
esac
if [ -n "$LEDGER" ]; then
  mkdir -p "$(dirname "$LEDGER")" 2>/dev/null || true
  export FFET_LEDGER="$LEDGER"   # flows inside the benches append too
else
  unset FFET_LEDGER
fi

# Append one kind=bench ledger line for a finished bench (pass or fail).
# Peak RSS comes from polling /proc/<pid>/status VmHWM while the bench
# runs (no GNU time dependency); 0 when /proc is unavailable.
ledger_bench_line() {
  # $1=bench $2=exit-code $3=wall-ms $4=peak-rss-kb
  [ -n "$LEDGER" ] || return 0
  if [ "$2" = 0 ]; then _valid=true; else _valid=false; fi
  printf '{"schema":"ffet.ledger.v1","kind":"bench","label":"%s","timestamp_s":%s,"host":"%s","threads":%s,"valid":%s,"metrics":{"runtime_ms":%s,"peak_rss_kb":%s,"exit_code":%s}}\n' \
    "$1" "$(date +%s)" "$(hostname 2>/dev/null || echo unknown)" \
    "${FFET_THREADS:-0}" "$_valid" "$3" "$4" "$2" >> "$LEDGER"
}

# Run one bench, timing it and tracking its peak RSS; records the ledger
# line even when the bench exits nonzero, then propagates that exit code.
run_bench() {
  _b=$1; shift
  _t0=$(date +%s%N)
  "$@" &
  _pid=$!
  _peak=0
  while kill -0 "$_pid" 2>/dev/null; do
    _hwm=$(awk '/^VmHWM:/{print $2}' "/proc/$_pid/status" 2>/dev/null)
    case "$_hwm" in
      ''|*[!0-9]*) ;;
      *) [ "$_hwm" -gt "$_peak" ] && _peak=$_hwm ;;
    esac
    sleep 0.05
  done
  wait "$_pid"
  _rc=$?
  _t1=$(date +%s%N)
  case "$_t0$_t1" in
    *N*) _ms=0 ;;  # date without %N support
    *)   _ms=$(( (_t1 - _t0) / 1000000 )) ;;
  esac
  ledger_bench_line "$_b" "$_rc" "$_ms" "$_peak"
  return $_rc
}

# A bench failure must fail the script (CI gates on it), but one bad bench
# should not mask the results of the rest: run them all, then report.
failures=""
for b in $benches; do
  # Every bench parses --quick (bench_common.h); each decides what a
  # reduced sweep means (bench_eco trims ECO passes, bench_router drops to
  # one timing rep, the sweep benches thin their points).
  flags=""
  if [ "$quick" = 1 ]; then
    flags="--quick"
  fi
  if [ "$trace" = 1 ]; then
    # Exported (not assignment-prefixed) because run_bench is a function:
    # POSIX leaves prefix-assignment visibility on functions unspecified.
    export FFET_TRACE="trace_${b}.json"
    export FFET_FLOW_REPORT="flow_reports.jsonl"
  fi
  run_bench "$b" ./build/bench/$b $flags || failures="$failures $b"
done

# --serve: route the Fig. 8 --quick sweep through a local ffet_serve daemon
# and gate on the service contract: per-point QoR identity with the
# in-process run (ffet_report diff --qor must be empty) and a second
# identical submission served 100% from the daemon's cache.  The daemon
# runs with the full observability plane on: a merged cross-process Chrome
# trace (serve_smoke_trace.json — must contain the daemon plus >=2 worker
# pids), per-point latency attribution, and a live STATS snapshot
# (serve_smoke_stats.json) that must parse through `ffet_report
# serve-stats` and show at least one cache hit after the resubmission.
# Artifacts: serve_smoke_local.jsonl / serve_smoke_served{,2}.jsonl, the
# daemon log serve_smoke_daemon.log, trace and stats (CI uploads them).
# FFET_SERVE_SMOKE_OPTS can shrink the workload (e.g. "--registers 8").
run_serve_smoke() {
  echo ""
  echo "=== serve smoke: Fig. 8 --quick sweep through ffet_serve ==="
  _sock=".ffet_serve_smoke.sock"
  _cache=".ffet_serve_smoke_cache"
  _dlog="serve_smoke_daemon.log"
  _strace="serve_smoke_trace.json"
  _stats="serve_smoke_stats.json"
  rm -rf "$_cache"
  rm -f "$_sock" "$_dlog" "$_strace" "$_stats"
  ./build/examples/ffet_serve --socket "$_sock" --cache "$_cache" \
    --workers "${FFET_WORKERS:-2}" --log "$_dlog" \
    --trace "$_strace" --attrib &
  _daemon=$!
  _up=0
  for _i in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    if ./build/examples/ffet_submit --socket "$_sock" --ping \
        >/dev/null 2>&1; then
      _up=1
      break
    fi
    sleep 0.25
  done
  if [ "$_up" != 1 ]; then
    echo "serve smoke: daemon did not come up" >&2
    kill "$_daemon" 2>/dev/null || true
    return 1
  fi
  _rc=0
  ./build/examples/ffet_submit --socket "$_sock" --ping --count 3 || _rc=1
  # shellcheck disable=SC2086  # OPTS is intentionally word-split
  ./build/examples/ffet_submit --local --fig8-quick ${FFET_SERVE_SMOKE_OPTS-} \
    --out serve_smoke_local.jsonl || _rc=1
  ./build/examples/ffet_submit --socket "$_sock" --fig8-quick \
    --trace-id serve-smoke ${FFET_SERVE_SMOKE_OPTS-} \
    --out serve_smoke_served.jsonl || _rc=1
  # Second submission of the identical sweep: zero flow runs allowed.
  ./build/examples/ffet_submit --socket "$_sock" --fig8-quick \
    --trace-id serve-smoke-resubmit ${FFET_SERVE_SMOKE_OPTS-} --expect-cached \
    --out serve_smoke_served2.jsonl || _rc=1
  ./build/examples/ffet_report diff --mode flow --qor \
    serve_smoke_local.jsonl serve_smoke_served.jsonl || _rc=1
  ./build/examples/ffet_report diff --mode flow --qor \
    serve_smoke_local.jsonl serve_smoke_served2.jsonl || _rc=1
  # Live stats: the snapshot must parse and the resubmission must have
  # produced at least one cache hit.
  ./build/examples/ffet_submit --socket "$_sock" --stats \
    --out "$_stats" || _rc=1
  ./build/examples/ffet_report serve-stats "$_stats" || _rc=1
  if ! grep -q '"cache_hits":[1-9]' "$_stats"; then
    echo "serve smoke: no cache hits in $_stats after resubmission" >&2
    _rc=1
  fi
  ./build/examples/ffet_submit --socket "$_sock" --shutdown || _rc=1
  wait "$_daemon" || _rc=1
  # The merged trace is written at daemon shutdown: one file, real pids —
  # the daemon plus at least two distinct worker processes.
  if [ ! -s "$_strace" ]; then
    echo "serve smoke: merged trace $_strace missing" >&2
    _rc=1
  else
    _pids=$(tr ',' '\n' < "$_strace" | sed -n 's/.*"pid":\([0-9]*\).*/\1/p' \
      | sort -u | wc -l)
    if [ "$_pids" -lt 3 ]; then
      echo "serve smoke: merged trace has $_pids pid(s), want >=3" >&2
      _rc=1
    else
      echo "serve smoke: merged trace covers $_pids process(es)"
    fi
  fi
  if [ "$_rc" = 0 ]; then
    echo "serve smoke: PASS (QoR-identical to in-process, resubmit fully cached)"
  else
    echo "serve smoke: FAIL" >&2
  fi
  return $_rc
}

if [ "$serve" = 1 ]; then
  run_serve_smoke || failures="$failures serve_smoke"
fi

if [ "$trace" = 1 ]; then
  echo ""
  echo "traces written:"
  ls -1 trace_*.json 2>/dev/null || true
fi

if [ -n "$failures" ]; then
  echo ""
  echo "FAILED benches:$failures" >&2
  exit 1
fi
