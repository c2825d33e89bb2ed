#!/bin/sh
# bench.sh — measure the simulator microbenchmarks and emit a JSON report.
#
# Usage:
#   scripts/bench.sh [-baseline FILE | -interleave TESTBIN] [-out BENCH.json] [-reps N]
#
# Runs the per-µop simulator benchmarks (BenchmarkDetailedSimulator2Core,
# BenchmarkBadcoSimulator2Core, BenchmarkBadcoSimulator8Core, the
# per-policy warmed sweep BenchmarkPolicySweepColdWarmup and the
# Benchmark{Exact,Sampled}Detailed2Core10x sampled-simulation pair, each
# with -benchtime 3x, and BenchmarkPopulationSweep with -benchtime 1x),
# REPS times each, and reports the MINIMUM ns/op per benchmark — the
# standard way to measure on a noisy shared host, since noise only ever
# adds time. Allocations per op (from -benchmem) come from the last run.
#
# It then runs the sampling-accuracy experiment once (full scale,
# 1M-µop traces) and records its speed/accuracy frontier — per sampling
# spec, the mean IPC error vs a warmed exact run, the CI coverage and
# the wall-clock speedup over cold full runs — alongside the mix timing
# A/B above.
#
# Two more sections ride along:
#   telemetry_overhead  the instrumented simulator benchmarks rerun with
#                       MCBENCH_TELEMETRY=off in the same time window;
#                       per benchmark, min-vs-min overhead in percent
#                       (the budget is <= 1%).
#   BenchmarkFleetCampaign  the fleet coordinator's per-product
#                       orchestration cost over instant in-process
#                       workers (internal/fleet), reported with the
#                       other benchmarks.
#
# The raw `go test -bench` lines are appended to <out>.raw.txt. Two ways
# to compare against a baseline:
#   -baseline FILE     a previous raw file; speedups go into the report.
#   -interleave BIN    a prebuilt baseline test binary (go test -c on the
#                      old tree). Its runs are interleaved A/B with the
#                      current tree's in the same time window, so slow
#                      drift in the host's background load cannot bias
#                      the comparison. Raw lines land in <out>.base.raw.txt.
set -eu

cd "$(dirname "$0")/.."

BASELINE=""
INTERLEAVE=""
OUT="BENCH_10.json"
REPS=5
while [ $# -gt 0 ]; do
	case "$1" in
	-baseline) BASELINE="$2"; shift 2 ;;
	-interleave) INTERLEAVE="$2"; shift 2 ;;
	-out) OUT="$2"; shift 2 ;;
	-reps) REPS="$2"; shift 2 ;;
	*) echo "usage: $0 [-baseline FILE | -interleave TESTBIN] [-out FILE] [-reps N]" >&2; exit 2 ;;
	esac
done

RAW="$OUT.raw.txt"
: >"$RAW"
SIMS='BenchmarkDetailedSimulator2Core$|BenchmarkBadcoSimulator2Core$|BenchmarkBadcoSimulator8Core$|BenchmarkPolicySweepColdWarmup$|BenchmarkExactDetailed2Core10x$|BenchmarkSampledDetailed2Core10x$'
POP='BenchmarkPopulationSweep$'
# The span-instrumented subset of SIMS: these run a second pass with
# telemetry disabled for the overhead A/B (the sweep pair carries no
# span, so it would only dilute the measurement).
TELEM='BenchmarkDetailedSimulator2Core$|BenchmarkBadcoSimulator2Core$|BenchmarkBadcoSimulator8Core$|BenchmarkExactDetailed2Core10x$|BenchmarkSampledDetailed2Core10x$'
FLEETB='BenchmarkFleetCampaign$'

if [ -n "$INTERLEAVE" ]; then
	BASELINE="$OUT.base.raw.txt"
	: >"$BASELINE"
fi

# Current tree as a prebuilt binary too, so A and B pay identical costs.
# default.pgo (regenerable with scripts/pgo.sh) feeds profile-guided
# optimization when present; go test does not pick it up automatically
# for library packages, so pass it explicitly.
PGO=""
[ -f default.pgo ] && PGO="-pgo=default.pgo"
BIN=$(mktemp /tmp/mcbench.XXXXXX.test)
go test $PGO -c -o "$BIN" .
FLEETBIN=$(mktemp /tmp/mcbench.XXXXXX.fleet.test)
go test -c -o "$FLEETBIN" ./internal/fleet
trap 'rm -f "$BIN" "$FLEETBIN"' EXIT

OFFRAW="$OUT.telemetry-off.raw.txt"
: >"$OFFRAW"

START=$(date +%s)
i=0
while [ "$i" -lt "$REPS" ]; do
	if [ -n "$INTERLEAVE" ]; then
		"$INTERLEAVE" -test.run '^$' -test.bench "$SIMS" -test.benchtime 3x -test.benchmem | grep '^Benchmark' >>"$BASELINE"
	fi
	"$BIN" -test.run '^$' -test.bench "$SIMS" -test.benchtime 3x -test.benchmem | grep '^Benchmark' >>"$RAW"
	if [ -n "$INTERLEAVE" ]; then
		"$INTERLEAVE" -test.run '^$' -test.bench "$POP" -test.benchtime 1x -test.benchmem | grep '^Benchmark' >>"$BASELINE"
	fi
	"$BIN" -test.run '^$' -test.bench "$POP" -test.benchtime 1x -test.benchmem | grep '^Benchmark' >>"$RAW"
	# Telemetry A/B: the same binary, same time window, recording stripped
	# by the env gate — the difference bounds the instrumentation cost.
	MCBENCH_TELEMETRY=off "$BIN" -test.run '^$' -test.bench "$TELEM" -test.benchtime 3x -test.benchmem | grep '^Benchmark' >>"$OFFRAW"
	"$FLEETBIN" -test.run '^$' -test.bench "$FLEETB" -test.benchtime 100x -test.benchmem | grep '^Benchmark' >>"$RAW"
	i=$((i + 1))
done
END=$(date +%s)

# summarize RAWFILE LABEL -> "name min_ns allocs" lines on stdout.
summarize() {
	awk '{
		name = $1
		sub(/-[0-9]+$/, "", name)
		ns = 0; allocs = -1
		for (f = 3; f < NF; f++) {
			if ($(f + 1) == "ns/op") ns = $f
			if ($(f + 1) == "allocs/op") allocs = $f
		}
		if (ns == 0) next
		if (!(name in min) || ns < min[name]) min[name] = ns
		al[name] = allocs
	}
	END { for (n in min) printf "%s %.0f %.0f\n", n, min[n], al[n] }' "$1" | sort
}

summarize "$RAW" >"$RAW.sum"
summarize "$OFFRAW" >"$RAW.off.sum"
if [ -n "$BASELINE" ]; then
	summarize "$BASELINE" >"$RAW.base.sum"
fi

# Telemetry overhead per instrumented benchmark: min-vs-min of the
# enabled (RAW) and MCBENCH_TELEMETRY=off (OFFRAW) passes.
TELEM_JSON=$(mktemp /tmp/mcbench.XXXXXX.telem)
while read -r name off _; do
	on=$(awk -v n="$name" '$1 == n { print $2 }' "$RAW.sum")
	[ -n "$on" ] || continue
	pct=$(awk -v on="$on" -v off="$off" 'BEGIN { printf "%.2f", (on - off) * 100 / off }')
	printf '    {"name": "%s", "on_ns_per_op": %s, "off_ns_per_op": %s, "overhead_pct": %s}\n' \
		"$name" "$on" "$off" "$pct"
done <"$RAW.off.sum" >"$TELEM_JSON"

# Sampled vs exact detailed simulation on the 10×-length mix, same
# binary, same traces: the cycle-proportional cost a cold low-IPC run
# pays and sampling avoids. (Accuracy on heterogeneous mixes is the
# estimator's weak spot — see the frontier below and the README.)
SAMPLED_SPEEDUP=""
exact10=$(awk '$1 == "BenchmarkExactDetailed2Core10x" { print $2 }' "$RAW.sum")
sampled10=$(awk '$1 == "BenchmarkSampledDetailed2Core10x" { print $2 }' "$RAW.sum")
if [ -n "$exact10" ] && [ -n "$sampled10" ]; then
	SAMPLED_SPEEDUP=$(awk -v e="$exact10" -v s="$sampled10" 'BEGIN { printf "%.2f", e / s }')
fi

# The sampling-accuracy experiment: full campaign scale (1M-µop traces),
# singles ensemble, one row per sampling spec. Parsed into the report as
# the speed/accuracy frontier — the error side of the A/B above.
FRONTIER=$(mktemp /tmp/mcbench.XXXXXX.frontier)
MCB=$(mktemp /tmp/mcbench.XXXXXX.cli)
trap 'rm -f "$BIN" "$FLEETBIN" "$MCB" "$FRONTIER" "$TELEM_JSON"' EXIT
go build $PGO -o "$MCB" ./cmd/mcbench
"$MCB" sampling-accuracy | awk '/^u[0-9]/ {
	sub(/%$/, "", $3); sub(/%$/, "", $4); sub(/x$/, "", $6)
	printf "    {\"spec\": \"%s\", \"windows\": %s, \"detailed_pct\": %s, \"mean_err_pct\": %s, \"ci_cover\": \"%s\", \"speedup_vs_cold\": %s}\n", \
		$1, $2, $3, $4, $5, $6
}' >"$FRONTIER"

{
	echo '{'
	echo '  "protocol": "min ns/op over '"$REPS"' runs (sim benchmarks: -benchtime 3x; population sweep: -benchtime 1x; fleet campaign: -benchtime 100x; fresh process per run), -benchmem",'
	echo '  "walltime_seconds": '$((END - START))','
	if [ -n "$SAMPLED_SPEEDUP" ]; then
		echo '  "sampled_vs_exact_speedup": '"$SAMPLED_SPEEDUP"','
	fi
	if [ -s "$TELEM_JSON" ]; then
		echo '  "telemetry_overhead_note": "instrumented simulator benchmarks vs the same binary with MCBENCH_TELEMETRY=off, min ns/op over the same reps in the same time window; budget <= 1% (negatives are host noise)",'
		echo '  "telemetry_overhead": ['
		sed '$!s/$/,/' "$TELEM_JSON"
		echo '  ],'
	fi
	if [ -s "$FRONTIER" ]; then
		echo '  "sampling_frontier_note": "singles ensemble on 1M-µop traces; error vs warmed exact run (steady-state referent), speedup vs cold full runs; f-suffixed spec bounds functional warming (speed dial, larger bias)",'
		echo '  "sampling_frontier": ['
		sed '$!s/$/,/' "$FRONTIER"
		echo '  ],'
	fi
	echo '  "benchmarks": ['
	first=1
	while read -r name ns allocs; do
		[ "$first" -eq 1 ] || echo ','
		first=0
		printf '    {"name": "%s", "ns_per_op": %s, "allocs_per_op": %s' "$name" "$ns" "$allocs"
		if [ -n "$BASELINE" ]; then
			base=$(awk -v n="$name" '$1 == n { print $2 }' "$RAW.base.sum")
			base_allocs=$(awk -v n="$name" '$1 == n { print $3 }' "$RAW.base.sum")
			if [ -n "$base" ]; then
				speedup=$(awk -v b="$base" -v n="$ns" 'BEGIN { printf "%.2f", b / n }')
				printf ', "baseline_ns_per_op": %s, "baseline_allocs_per_op": %s, "speedup": %s' \
					"$base" "$base_allocs" "$speedup"
			fi
		fi
		printf '}'
	done <"$RAW.sum"
	echo ''
	echo '  ]'
	echo '}'
} >"$OUT"

rm -f "$RAW.sum" "$RAW.base.sum" "$RAW.off.sum"
echo "wrote $OUT (raw samples in $RAW)"
