package main

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"mcbench"
	"mcbench/internal/badco"
	"mcbench/internal/bench"
	"mcbench/internal/cache"
	"mcbench/internal/multicore"
	"mcbench/internal/trace"
)

const (
	defaultSeed = 1
	// popTraceLen is the trace length and per-thread quota of the
	// population workloads (the quick lab configuration's).
	popTraceLen = 20000
	// longTraceLen is sampled-long's trace length: ten times the
	// population traces, so trace generation is a real share of set-up.
	longTraceLen = 200000
	// badcoPopSize is badco-pop's co-schedule count per pass: 8
	// balanced blocks of 11, about two seconds at two sweep slots on a
	// 2-vCPU x86-64 host.
	badcoPopSize = 88
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// runDeadline bounds a whole run, so a hung simulation fails the
	// run well inside the 180 s a run may take.
	runDeadline = 150 * time.Second
)

// samplingSpec is sampled-long's schedule: one 2000-µop window, after
// 2000 µops of detailed warmup, per 10000-µop unit.
var samplingSpec = [3]uint64{10000, 2000, 2000}

type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig) (*outcome, uint64, error)
}

var workloads = []workload{
	{"badco-pop", runBadcoPop},
	{"detailed-pop", runDetailedPop},
	{"sampled-long", runSampledLong},
	{"served", runServed},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simRun is one co-schedule's checked output.
type simRun struct {
	ipc    []float64
	cycles []uint64
}

// timeSetup runs fn reps times and returns the median wall time in
// seconds. The state the last call leaves behind is what the measured
// phase uses. A collection before each call, and after the last, keeps
// one repetition's garbage out of the next one's time and resident set.
func timeSetup(reps int, fn func() error) (float64, error) {
	ts := make([]float64, reps)
	defer debug.FreeOSMemory()
	for i := range ts {
		debug.FreeOSMemory()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ts[i] = time.Since(start).Seconds()
	}
	return median(ts), nil
}

// passes is the measured phase of a sweep workload: it sweeps the whole
// population again and again until at least d has elapsed, and checks
// every result. Every pass after the first must reproduce the first
// bit for bit. A sweep error fails the pass's operations and ends the
// phase. sim_mips is the median over passes: the host's speed swings by
// ±10% within seconds, and the median of several whole passes is what
// stays put.
type passes struct {
	times             []float64 // seconds per pass
	elapsed           time.Duration
	first             []simRun
	attempted, failed int
}

// minPasses is the fewest passes a run measures, however long they take.
const minPasses = 3

func measurePasses(ctx context.Context, d time.Duration, threads, size int, sweep func(context.Context) ([]simRun, error)) (passes, error) {
	var p passes
	start := time.Now()
	for len(p.times) < minPasses || time.Since(start) < d {
		t0 := time.Now()
		rs, err := sweep(ctx)
		t := time.Since(t0).Seconds()
		p.attempted += size
		if err != nil {
			p.failed += size
			fmt.Printf("sweep failed: %v\n", err)
			break
		}
		for i, r := range rs {
			if checkRun(threads, r.ipc, r.cycles) != nil || (p.first != nil && !sameCycles(r.cycles, p.first[i].cycles)) {
				p.failed++
			}
		}
		if p.first == nil {
			p.first = rs
		}
		p.times = append(p.times, t)
	}
	p.elapsed = time.Since(start)
	if p.first == nil {
		return p, fmt.Errorf("no sweep pass completed")
	}
	return p, nil
}

// report fills the metrics every sweep workload shares.
func (p passes) report(out *outcome, name string, setup float64, quotaUops float64) {
	out.attempted += p.attempted
	out.failed += p.failed
	out.set("sim_mips", quotaUops/median(p.times)/1e6, "MIPS")
	out.set("setup_s", setup, "s")
	out.notef("%s: %d passes of %d co-schedules in %.3f s; seconds per pass %.3f", name, len(p.times), len(p.first), p.elapsed.Seconds(), p.times)
}

func firstCycles(rs []simRun) [][]uint64 {
	cs := make([][]uint64, len(rs))
	for i, r := range rs {
		cs[i] = r.cycles
	}
	return cs
}

func asWorkloads(pop [][]string) []multicore.Workload {
	ws := make([]multicore.Workload, len(pop))
	for i, w := range pop {
		ws[i] = multicore.Workload(w)
	}
	return ws
}

func fromMulticore(rs []multicore.Result) []simRun {
	out := make([]simRun, len(rs))
	for i, r := range rs {
		out[i] = simRun{ipc: r.IPC, cycles: r.Cycles}
	}
	return out
}

func fromPublic(rs []*mcbench.Result) []simRun {
	out := make([]simRun, len(rs))
	for i, r := range rs {
		out[i] = simRun{ipc: r.IPC, cycles: r.Cycles}
	}
	return out
}

// buildSuiteModels builds the BADCO model of every suite benchmark from
// its n-µop trace.
func buildSuiteModels(ctx context.Context, n int) (map[string]*badco.Model, error) {
	trs, err := trace.NewSuite(n)
	if err != nil {
		return nil, err
	}
	return multicore.BuildModels(ctx, multicore.TraceMap(trs), trace.SuiteNames(), badco.DefaultBuildConfig())
}

// warmSource drops and regenerates the n-µop trace of every suite
// benchmark in the shared source, on the process-wide simulation slots.
func warmSource(ctx context.Context, src bench.Source, n int) error {
	names := src.Names()
	errs := make([]error, len(names))
	for _, name := range names {
		src.Release(name)
	}
	if err := multicore.RunBounded(ctx, len(names), func(i int) {
		_, errs[i] = src.Trace(ctx, names[i], n)
	}); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runBadcoPop sweeps balanced 4-core co-schedules with BADCO machines
// over prebuilt models. mcbench.Sweep would rebuild all 22 models on
// every call; the benchmark builds them once in set-up and sweeps with
// multicore.SweepApproximate, the kernel mcbench.Sweep runs after its
// build.
func runBadcoPop(ctx context.Context, cfg runConfig) (*outcome, uint64, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	pop := groups(cfg.seed, 4, badcoPopSize)
	var models map[string]*badco.Model
	setup, err := timeSetup(setupReps, func() (err error) {
		models, err = buildSuiteModels(ctx, popTraceLen)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	ws := asWorkloads(pop)
	p, err := measurePasses(ctx, cfg.seconds, 4, len(pop), func(ctx context.Context) ([]simRun, error) {
		rs, err := multicore.SweepApproximate(ctx, ws, models, cache.LRU, popTraceLen)
		return fromMulticore(rs), err
	})
	if err != nil {
		return nil, 0, err
	}
	out := &outcome{digestOps: len(pop)}
	p.report(out, "badco-pop", setup, float64(len(pop)*4*popTraceLen))
	return out, digest(firstCycles(p.first)), nil
}

// runDetailedPop sweeps every 2-core pair with the detailed model
// through mcbench.Sweep, then runs BADCO over the same pairs outside
// the measured phase for the accuracy figure.
func runDetailedPop(ctx context.Context, cfg runConfig) (*outcome, uint64, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	pop := pairs(cfg.seed)
	src, err := mcbench.Suite("suite")
	if err != nil {
		return nil, 0, err
	}
	var models map[string]*badco.Model
	setup, err := timeSetup(setupReps, func() (err error) {
		if err = warmSource(ctx, src, popTraceLen); err != nil {
			return err
		}
		models, err = buildSuiteModels(ctx, popTraceLen)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	p, err := measurePasses(ctx, cfg.seconds, 2, len(pop), func(ctx context.Context) ([]simRun, error) {
		rs, err := mcbench.Sweep(ctx, pop, mcbench.WithSimulator(mcbench.Detailed), mcbench.WithPolicy(mcbench.LRU),
			mcbench.WithTraceLen(popTraceLen), mcbench.WithSuite(src))
		return fromPublic(rs), err
	})
	if err != nil {
		return nil, 0, err
	}
	out := &outcome{digestOps: 2 * len(pop)}
	p.report(out, "detailed-pop", setup, float64(len(pop)*2*popTraceLen))

	// Accuracy: BADCO against the detailed model, pair by pair.
	brs, err := multicore.SweepApproximate(ctx, asWorkloads(pop), models, cache.LRU, popTraceLen)
	out.attempted += len(pop)
	if err != nil {
		out.failed += len(pop)
		out.notef("badco accuracy pass failed: %v", err)
		return out, digest(firstCycles(p.first)), nil
	}
	all := firstCycles(p.first)
	var errSum float64
	var n int
	for i, r := range brs {
		all = append(all, r.Cycles)
		if checkRun(2, r.IPC, r.Cycles) != nil {
			out.failed++
			continue
		}
		for t := range r.IPC {
			det := 1 / p.first[i].ipc[t]
			errSum += math.Abs(1/r.IPC[t]-det) / det
			n++
		}
	}
	out.notef("badco_cpi_err_pct %.4f %% (simulated, %d threads of %d pairs)", 100*errSum/float64(max(n, 1)), n, len(pop))
	return out, digest(all), nil
}

// runSampledLong sweeps half the 2-core pairs (a fixed half, so a pass
// stays near four seconds) of 200k-µop traces under systematic sampling
// through mcbench.Sweep.
func runSampledLong(ctx context.Context, cfg runConfig) (*outcome, uint64, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	pop := evenPairs(cfg.seed)
	src, err := mcbench.Suite("suite")
	if err != nil {
		return nil, 0, err
	}
	setup, err := timeSetup(setupReps, func() error { return warmSource(ctx, src, longTraceLen) })
	if err != nil {
		return nil, 0, err
	}
	p, err := measurePasses(ctx, cfg.seconds, 2, len(pop), func(ctx context.Context) ([]simRun, error) {
		rs, err := mcbench.Sweep(ctx, pop, mcbench.WithSimulator(mcbench.Detailed), mcbench.WithPolicy(mcbench.LRU),
			mcbench.WithTraceLen(longTraceLen), mcbench.WithSuite(src),
			mcbench.WithSampling(samplingSpec[0], samplingSpec[1], samplingSpec[2]))
		return fromPublic(rs), err
	})
	if err != nil {
		return nil, 0, err
	}
	out := &outcome{digestOps: len(pop)}
	p.report(out, "sampled-long", setup, float64(len(pop)*2*longTraceLen))
	return out, digest(firstCycles(p.first)), nil
}

// median returns the middle value (the mean of the middle two for an
// even count) of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
