// Package multicore runs multiprogrammed workloads: K independent threads
// (one benchmark each) on K cores sharing one uncore, using either the
// detailed core model (package cpu) or BADCO machines (package badco).
//
// A run is described once, by a Spec (engine, LLC policy, quota, warmup,
// sampling), and dispatched once, by Run or Sweep. Every layer above
// builds a Spec and calls them.
//
// Scheduling follows the paper's setup: cores interleave on a
// smallest-local-clock-first discipline (approximating the round-robin
// uncore arbitration), each thread that finishes its instruction quota is
// restarted until every thread has executed at least the quota, and IPC
// is measured on each thread's first quota of instructions.
//
// One loop, schedule, implements that discipline for every kind of run.
// Each core advances until it has committed its target µops, and the loop
// records the core's local clock at that crossing. A core that has
// crossed keeps running until it has committed cap µops, then leaves the
// pick set. The loop ends once every core has crossed its target:
//
//   - cap = never is the exact run: finished threads keep contending for
//     the uncore until the slowest one crosses;
//   - cap = target is the warmup: each core halts at the boundary, and
//     the measurement then opens from wherever each thread stands;
//   - target < cap is a sampled window: a core that crosses runs on,
//     timed, into its next gap and halts before the next warmup region.
//
// A warmed run warms under the policy it measures: warmup and
// measurement are two stages of one Run, on either engine.
package multicore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"mcbench/internal/badco"
	"mcbench/internal/cache"
	"mcbench/internal/cpu"
	"mcbench/internal/telemetry"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// Phase names charged to a telemetry span carried by the context (see
// telemetry.NewContext). Hooks sit at phase boundaries — trace
// resolution, model building, warmup, fast-forward, the measured
// window — never inside the per-µop loops, so an attached span costs
// a mutex op per phase and an absent one (nil) costs a context lookup.
const (
	phaseTraceLoad   = "trace_load"
	phaseModelBuild  = "model_build"
	phaseWarmup      = "warmup"
	phaseFastForward = "fast_forward"
	phaseMeasure     = "measure"
)

// TraceSource resolves benchmark names to traces at the simulation
// boundary. It is satisfied by bench.Provider (a bench.Source bound to a
// trace length) and by TraceMap; implementations must be safe for
// concurrent use. Runs resolve whole workloads up front and then
// simulate bare *trace.Trace values, so the allocation-free kernel hot
// paths never see the indirection.
type TraceSource interface {
	// Trace returns the named benchmark's trace, building or loading it
	// on first use.
	Trace(ctx context.Context, name string) (*trace.Trace, error)
	// Release hints that the caller is done with the named benchmark's
	// trace; a memoizing source drops it to bound resident memory.
	Release(name string)
}

// TraceMap adapts an eagerly-built trace map to the TraceSource
// boundary, for callers that already hold all their traces (tests, the
// co-phase machinery). Release is a no-op.
type TraceMap map[string]*trace.Trace

// Trace looks the benchmark up in the map.
func (m TraceMap) Trace(_ context.Context, name string) (*trace.Trace, error) {
	tr, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("multicore: no trace for benchmark %q", name)
	}
	return tr, nil
}

// Release is a no-op: the map owns its traces.
func (m TraceMap) Release(string) {}

// Workload names the benchmarks co-scheduled on the K cores; duplicates
// are allowed (the same benchmark may run on several cores).
type Workload []string

// String formats the workload compactly.
func (w Workload) String() string {
	s := ""
	for i, b := range w {
		if i > 0 {
			s += "+"
		}
		s += b
	}
	return s
}

// Engine selects the core model a run simulates.
type Engine int

const (
	// Detailed is the cycle-level out-of-order core (package cpu).
	Detailed Engine = iota
	// BADCO is the behavioural approximate core (package badco).
	BADCO
)

// engineNames spells every engine; String and ParseEngine read it.
var engineNames = [...]string{Detailed: "detailed", BADCO: "badco"}

// String names the engine ("detailed" or "badco").
func (e Engine) String() string {
	if e >= 0 && int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine reads an engine name; the empty name is Detailed.
func ParseEngine(name string) (Engine, error) {
	if name == "" {
		return Detailed, nil
	}
	for e, n := range engineNames {
		if n == name {
			return Engine(e), nil
		}
	}
	return 0, fmt.Errorf("multicore: unknown engine %q (want %q or %q)", name, Detailed, BADCO)
}

// Spec describes one simulation run.
type Spec struct {
	Engine Engine
	Policy cache.PolicyName
	// Quota is the per-thread count of measured µops. Zero means one
	// trace length; Resolved fills it in.
	Quota uint64
	// Warmup, when positive, runs each thread that many committed µops
	// before the measurement opens; IPC and cycles then cover only the
	// Quota µops beyond it.
	Warmup uint64
	// Sampling, when enabled, measures the detailed engine under
	// systematic sampling (see SamplingSpec) instead of exactly.
	Sampling SamplingSpec
}

// Resolved returns the spec with a zero quota replaced by traceLen: one
// trace length per thread is the default measurement.
func (s Spec) Resolved(traceLen int) Spec {
	if s.Quota == 0 {
		s.Quota = uint64(traceLen)
	}
	return s
}

// Validate checks the spec: a known engine and policy, a consistent
// sampling schedule, and the rules that tie the fields together — a
// warmup no longer than the quota, sampling only on the detailed engine,
// never together with a warmup, and with a unit no larger than the
// quota. A zero quota is not resolved yet, so the quota rules wait:
// Run validates again once the trace length is known.
func (s Spec) Validate() error {
	if s.Engine != Detailed && s.Engine != BADCO {
		return fmt.Errorf("multicore: unknown engine %d", s.Engine)
	}
	if _, err := cache.NewPolicy(s.Policy, 0); err != nil {
		return err
	}
	if err := s.Sampling.Validate(); err != nil {
		return err
	}
	if s.Quota > 0 && s.Warmup > s.Quota {
		return fmt.Errorf("multicore: warmup %d exceeds the instruction quota %d", s.Warmup, s.Quota)
	}
	switch {
	case !s.Sampling.Enabled():
	case s.Engine != Detailed:
		return fmt.Errorf("multicore: sampling requires the detailed engine (BADCO is already fast; sample the slow simulator)")
	case s.Warmup > 0:
		return fmt.Errorf("multicore: sampling and warmup are mutually exclusive (the sampling spec's warmup warms each window)")
	case s.Quota > 0 && s.Sampling.Unit > s.Quota:
		return fmt.Errorf("multicore: sampling unit %d exceeds quota %d", s.Sampling.Unit, s.Quota)
	}
	return nil
}

// ErrUnknownBenchmark is wrapped by Batch.Resolve's error for a name the
// catalogue does not hold, so a front door can point at its listing.
var ErrUnknownBenchmark = errors.New("unknown benchmark")

// Catalog is what a Batch resolves against: the benchmark names on offer
// and the trace length a zero quota stands for. bench.Provider is one.
type Catalog interface {
	Names() []string
	Len() int
}

// Batch is an ad-hoc run request as a front door (the public API, the
// CLI, serve) receives it: workloads, a core count and a spec. Resolve
// turns it into what Run and Sweep take.
type Batch struct {
	Workloads []Workload
	// Cores, when positive, pins the machine's core count: a
	// single-benchmark workload is replicated onto every core, and any
	// other workload must already have Cores threads. Zero keeps each
	// workload's own width.
	Cores int
	Spec  Spec
}

// Resolve makes every decision an ad-hoc request leaves open, once: it
// defaults an empty policy to LRU, replicates single-benchmark workloads
// onto Cores, checks every name against cat, and validates the spec with
// a zero quota resolved to cat.Len(). It returns the resolved batch
// (workloads copied, quota as given, since Run resolves a zero quota
// itself) and the distinct benchmark names in first-use order.
func (b Batch) Resolve(cat Catalog) (Batch, []string, error) {
	if b.Spec.Policy == "" {
		b.Spec.Policy = cache.LRU
	}
	if b.Cores < 0 {
		return b, nil, fmt.Errorf("multicore: negative cores %d", b.Cores)
	}
	valid := map[string]bool{}
	for _, n := range cat.Names() {
		valid[n] = true
	}
	seen := map[string]bool{}
	var names []string
	ws := make([]Workload, len(b.Workloads))
	for i, w := range b.Workloads {
		switch {
		case len(w) == 0:
			return b, nil, fmt.Errorf("multicore: empty workload")
		case b.Cores == 0 || b.Cores == len(w):
			ws[i] = append(Workload(nil), w...)
		case len(w) == 1:
			ws[i] = make(Workload, b.Cores)
			for c := range ws[i] {
				ws[i][c] = w[0]
			}
		default:
			return b, nil, fmt.Errorf("multicore: workload %s has %d threads but %d cores were given", w, len(w), b.Cores)
		}
		for _, name := range w {
			if !valid[name] {
				return b, nil, fmt.Errorf("multicore: %w %q", ErrUnknownBenchmark, name)
			}
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	n := cat.Len()
	if n <= 0 {
		return b, nil, fmt.Errorf("multicore: non-positive trace length %d", n)
	}
	if err := b.Spec.Resolved(n).Validate(); err != nil {
		return b, nil, err
	}
	b.Workloads = ws
	return b, names, nil
}

// Result is the outcome of simulating one workload under one spec.
type Result struct {
	Workload Workload
	Policy   cache.PolicyName
	// IPC per core, measured on the first quota instructions of each
	// thread.
	IPC []float64
	// Cycles per core at which the quota was reached.
	Cycles []uint64
	// Instructions is the per-thread quota.
	Instructions uint64

	// The fields below are filled in by sampled runs only. There IPC per
	// core is the inverse of the mean per-window CPI — every window
	// measures the same µop count, so the mean CPI is exactly total
	// measured cycles over total measured µops, the unbiased ratio
	// estimate (averaging per-window IPCs directly would be
	// Jensen-biased upward). Instructions is the µops measured in detail
	// per thread (windows × window length), Cycles the per-core detailed
	// cycles spent measuring them.

	// Windows is the number of measured windows per thread.
	Windows int
	// CIHalf is the per-core half-width of the SampledConfidence
	// interval around IPC: the Student-t interval on the mean window
	// CPI, mapped to the IPC scale by the delta method. Zero when only
	// one window was measured.
	CIHalf []float64
	// CV is the per-core coefficient of variation of the per-window
	// CPIs (the cv SMARTS-style sampling reports).
	CV []float64
	// Samples holds the raw per-window IPCs, indexed [core][window].
	Samples [][]float64
}

// CPI returns the per-core cycles per instruction. A core with zero IPC
// (it never committed an instruction) has infinite CPI.
func (r Result) CPI(core int) float64 {
	if r.IPC[core] == 0 {
		return math.Inf(1)
	}
	return 1 / r.IPC[core]
}

func assemble(w Workload, policy cache.PolicyName, cycles []uint64, quota uint64) Result {
	r := Result{
		Workload:     append(Workload(nil), w...),
		Policy:       policy,
		IPC:          make([]float64, len(w)),
		Cycles:       cycles,
		Instructions: quota,
	}
	for i, cyc := range cycles {
		if cyc > 0 {
			r.IPC[i] = float64(quota) / float64(cyc)
		}
	}
	return r
}

// ---------------------------------------------------------------------------
// The scheduling loop

// stepper is what the scheduling loop needs of a core model; *cpu.Core
// and *badco.Machine both satisfy it.
type stepper interface {
	StepUntil(limit, quota uint64) uint64
	Now() uint64
	Committed() uint64
}

// never is a clock/quota bound that no simulation reaches.
const never = ^uint64(0)

// cancelCheckMask throttles context polling in the batch loop: the
// cancellation check (a non-blocking channel receive) runs once every
// cancelCheckMask+1 batches, keeping it off the per-batch fast path
// while still bounding the reaction latency to microseconds.
const cancelCheckMask = 1023

// soloChunkCycles is the clock-batch size of a core with no other core
// left to bound its batch: it runs in fixed-size clock windows, and the
// loop polls for cancellation after each, so a long solo run stays
// interruptible. StepUntil is resumable, so chunking does not change
// results.
const soloChunkCycles = 1 << 18

// schedule is the one scheduling loop (see the package comment for the
// target/cap contract). It advances the cores on the
// smallest-local-clock-first discipline until every core has committed
// at least targets[i] µops, records the core's clock in cross[i] at
// that crossing, and lets a core that has crossed run on until it has
// committed cap µops. Every target must be at most cap.
//
// It reproduces the schedule of stepping the minimum-clock core one µop
// at a time, but dispatches whole batches: a core's local clock never
// decreases and the other cores' clocks cannot change while it runs, so
// the per-step loop would keep re-picking the current minimum-clock core
// until its clock reaches the runner-up's. StepUntil runs that whole
// stretch as one tight monomorphic loop inside the core model — one
// interface dispatch and one scheduling decision per batch instead of
// per simulated µop. Between batches a single pass over the cached
// clocks carries the pick and the runner-up through a 2-element
// tournament. Batch boundaries never change the simulated state.
func schedule(ctx context.Context, cores []stepper, targets []uint64, cap uint64, cross []uint64) error {
	n := len(cores)
	done := ctx.Done()
	// clocks caches each core's local clock; a core that has reached cap
	// leaves the pick set by reading never.
	clocks := make([]uint64, n)
	reached := make([]bool, n)
	remaining := 0
	for i, c := range cores {
		clocks[i] = c.Now()
		if c.Committed() >= targets[i] {
			reached[i] = true
			cross[i] = clocks[i]
		}
		if !reached[i] {
			remaining++
		}
		if c.Committed() >= cap {
			clocks[i] = never
		}
	}
	for batch := 0; remaining > 0; batch++ {
		// One pass, ties to the lower index: m is the core the per-step
		// loop would pick, o the runner-up it would pick next.
		m, o := 0, -1
		for i := 1; i < n; i++ {
			switch {
			case clocks[i] < clocks[m]:
				m, o = i, m
			case o < 0 || clocks[i] < clocks[o]:
				o = i
			}
		}
		solo := o < 0 || clocks[o] == never
		// A solo batch is long, so it polls every time.
		if done != nil && (solo || batch&cancelCheckMask == 0) {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		// Core m keeps the pick while its clock is below the runner-up's
		// — or equal to it, when m wins the lower-index tie-break.
		limit := clocks[m] + soloChunkCycles
		if !solo {
			limit = clocks[o]
			if m < o {
				limit++
			}
		}
		// A core that has not crossed its target stops its batch at the
		// crossing so the crossing clock is captured; afterwards it runs
		// on (restarted, as in the paper) up to cap.
		stop := cap
		if !reached[m] {
			stop = targets[m]
		}
		c := cores[m]
		c.StepUntil(limit, stop)
		clocks[m] = c.Now()
		if stop != never {
			if cm := c.Committed(); cm >= stop {
				if !reached[m] {
					reached[m] = true
					cross[m] = clocks[m]
					remaining--
				}
				if cm >= cap {
					clocks[m] = never
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Machines

// machine is one built simulation: the shared uncore and one core model
// per workload slot. It is the one place the two engines differ — it
// builds either of them behind the stepper interface the scheduling
// loop drives.
type machine struct {
	unc   *uncore.Uncore
	cores []stepper
	cpus  []*cpu.Core // the detailed engine's cores
	// traceLen is the first benchmark's trace length, which a zero quota
	// resolves to.
	traceLen int
}

// build constructs the machine for the workload under the given engine
// and policy. Detailed traces resolve through the source here and are
// not released: the caller owns the retention policy.
func build(ctx context.Context, w Workload, engine Engine, policy cache.PolicyName, traces TraceSource, models map[string]*badco.Model) (*machine, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("multicore: empty workload")
	}
	unc, err := uncore.New(uncore.ConfigFor(len(w), policy))
	if err != nil {
		return nil, err
	}
	m := &machine{unc: unc, cores: make([]stepper, len(w))}
	sp := telemetry.FromContext(ctx)
	for i, name := range w {
		if engine == BADCO {
			mod, ok := models[name]
			if !ok {
				return nil, fmt.Errorf("multicore: no model for benchmark %q", name)
			}
			ma, err := badco.NewMachine(i, mod, unc)
			if err != nil {
				return nil, err
			}
			m.cores[i] = ma
			if i == 0 {
				m.traceLen = mod.TraceLen
			}
			continue
		}
		stop := sp.Time(phaseTraceLoad)
		tr, err := traces.Trace(ctx, name)
		stop()
		if err != nil {
			return nil, err
		}
		c, err := cpu.New(i, cpu.DefaultConfig(), tr, unc)
		if err != nil {
			return nil, err
		}
		m.cores[i] = c
		m.cpus = append(m.cpus, c)
		if i == 0 {
			m.traceLen = tr.Len()
		}
	}
	return m, nil
}

// prepare builds the spec's machine, resolves its quota and validates
// the resolved spec.
func prepare(ctx context.Context, w Workload, spec Spec, traces TraceSource, models map[string]*badco.Model) (*machine, Spec, error) {
	m, err := build(ctx, w, spec.Engine, spec.Policy, traces, models)
	if err != nil {
		return nil, spec, err
	}
	spec = spec.Resolved(m.traceLen)
	return m, spec, spec.Validate()
}

// advance drives every core to target and on to cap (see schedule),
// recording the crossing clocks in cross.
func (m *machine) advance(ctx context.Context, target, cap uint64, cross []uint64) error {
	targets := make([]uint64, len(m.cores))
	for i := range targets {
		targets[i] = target
	}
	return schedule(ctx, m.cores, targets, cap, cross)
}

// warm runs every thread to warmup committed µops, halting each at the
// boundary.
func (m *machine) warm(ctx context.Context, warmup uint64) error {
	defer telemetry.FromContext(ctx).Time(phaseWarmup)()
	return m.advance(ctx, warmup, warmup, make([]uint64, len(m.cores)))
}

// measure runs quota further µops per thread from the machine's current
// state (reset or warmed) and reports each thread's cycles
// from its own clock at the start.
func (m *machine) measure(ctx context.Context, w Workload, policy cache.PolicyName, quota uint64) (Result, error) {
	n := len(m.cores)
	targets := make([]uint64, n)
	start := make([]uint64, n)
	for i, c := range m.cores {
		targets[i] = c.Committed() + quota
		start[i] = c.Now()
	}
	cross := make([]uint64, n)
	stop := telemetry.FromContext(ctx).Time(phaseMeasure)
	err := schedule(ctx, m.cores, targets, never, cross)
	stop()
	if err != nil {
		return Result{}, err
	}
	for i := range cross {
		cross[i] -= start[i]
	}
	return assemble(w, policy, cross, quota), nil
}

// ---------------------------------------------------------------------------
// Entry points

// Run simulates one workload under the spec. Detailed traces resolve
// through the source and are not released here: the caller owns the
// retention policy. A BADCO run uses the given models, or builds them
// from the source when models is nil (so a nil-model BADCO Run must not
// be called from inside RunBounded). A cancelled context aborts the
// simulation and returns ctx.Err().
func Run(ctx context.Context, w Workload, spec Spec, traces TraceSource, models map[string]*badco.Model) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	models, err := modelsFor(ctx, []Workload{w}, spec, traces, models)
	if err != nil {
		return Result{}, err
	}
	m, spec, err := prepare(ctx, w, spec, traces, models)
	if err != nil {
		return Result{}, err
	}
	if spec.Sampling.Enabled() {
		return m.sampled(ctx, w, spec)
	}
	if spec.Warmup > 0 {
		if err := m.warm(ctx, spec.Warmup); err != nil {
			return Result{}, err
		}
	}
	return m.measure(ctx, w, spec.Policy, spec.Quota)
}

// Sweep runs the spec over many workloads in parallel across the shared
// simulation budget (see RunBounded); the results are indexed like
// workloads. A BADCO sweep with nil models first builds the models of
// every benchmark the workloads name. Traces resolve lazily through the
// source (concurrent workloads sharing a benchmark share one build) and
// stay resident for the caller to release: a sweep touches each
// distinct benchmark many times, so releasing per workload would
// thrash. Cancelling the context stops dispatching new workloads,
// interrupts the running ones, and returns ctx.Err().
func Sweep(ctx context.Context, workloads []Workload, spec Spec, traces TraceSource, models map[string]*badco.Model) ([]Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	models, err := modelsFor(ctx, workloads, spec, traces, models)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(workloads))
	errs := make([]error, len(workloads))
	if err := RunBounded(ctx, len(workloads), func(i int) {
		results[i], errs[i] = Run(ctx, workloads[i], spec, traces, models)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// SweepApproximate is Sweep with BADCO over prebuilt models.
func SweepApproximate(ctx context.Context, workloads []Workload, models map[string]*badco.Model, policy cache.PolicyName, quota uint64) ([]Result, error) {
	return Sweep(ctx, workloads, Spec{Engine: BADCO, Policy: policy, Quota: quota}, nil, models)
}

// SweepDetailed is Sweep with the detailed engine.
func SweepDetailed(ctx context.Context, workloads []Workload, traces TraceSource, policy cache.PolicyName, quota uint64) ([]Result, error) {
	return Sweep(ctx, workloads, Spec{Engine: Detailed, Policy: policy, Quota: quota}, traces, nil)
}

// modelsFor returns the models a run of the workloads needs: the given
// ones, or — for a BADCO spec given none but a trace source — models
// built for every benchmark the workloads name.
func modelsFor(ctx context.Context, workloads []Workload, spec Spec, traces TraceSource, models map[string]*badco.Model) (map[string]*badco.Model, error) {
	if spec.Engine != BADCO || models != nil || traces == nil {
		return models, nil
	}
	seen := map[string]bool{}
	var names []string
	for _, w := range workloads {
		for _, name := range w {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	return BuildModels(ctx, traces, names, badco.DefaultBuildConfig())
}

func maxParallel() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	return n
}

// simSem bounds concurrent simulation work process-wide. All sweeps
// draw slots from this one semaphore, so campaign-level parallelism
// (several sweeps warmed at once) composes with per-sweep parallelism
// without multiplying: total live simulations stay at maxParallel()
// rather than workers x maxParallel().
var simSem = make(chan struct{}, maxParallel())

// RunBounded invokes fn(i) for every i in [0, n), drawing on the shared
// process-wide simulation budget. The slot is acquired before the
// goroutine is spawned, so at no point do more goroutines exist than may
// run — a sweep over thousands of workloads never piles up idle
// goroutines waiting for a slot. fn must not call RunBounded itself
// (slot-holders waiting on slots would deadlock).
//
// Cancelling the context stops dispatching new indices; RunBounded then
// waits for the already-running fn calls (which should observe the same
// context) before returning ctx.Err(). It never leaks goroutines.
func RunBounded(ctx context.Context, n int, fn func(int)) error {
	var wg sync.WaitGroup
	done := ctx.Done()
	var err error
	for i := 0; i < n; i++ {
		if done == nil {
			simSem <- struct{}{}
		} else {
			// Check cancellation before contending for a slot: a select
			// with both cases ready picks randomly, and a cancelled
			// campaign must dispatch nothing further.
			select {
			case <-done:
				err = ctx.Err()
			default:
			}
			if err == nil {
				select {
				case <-done:
					err = ctx.Err()
				case simSem <- struct{}{}:
				}
			}
			if err != nil {
				break
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-simSem }()
			fn(i)
		}(i)
	}
	wg.Wait()
	// Only cancellation observed during dispatch fails the call: if every
	// index was dispatched and ran, the work is complete regardless of a
	// cancellation that raced the finish (an interrupted fn surfaces its
	// own ctx error through the caller's per-index results). Discarding a
	// fully computed sweep here would force an interrupted-then-resumed
	// campaign to redo work it already finished.
	return err
}

// BuildModels constructs BADCO models for the named benchmarks, in
// parallel. It is the "one person-month of model building" step of the
// paper, automated. Each benchmark's trace is resolved through the
// source just before its two calibration runs and released right after
// its model is built, so peak trace memory tracks the in-flight build
// parallelism — O(GOMAXPROCS) traces — instead of the whole benchmark
// population (the models themselves are orders of magnitude smaller
// than the traces they summarise).
func BuildModels(ctx context.Context, traces TraceSource, names []string, cfg badco.BuildConfig) (map[string]*badco.Model, error) {
	built := make([]*badco.Model, len(names))
	errs := make([]error, len(names))
	sp := telemetry.FromContext(ctx)
	if err := RunBounded(ctx, len(names), func(i int) {
		stop := sp.Time(phaseTraceLoad)
		tr, err := traces.Trace(ctx, names[i])
		stop()
		if err != nil {
			errs[i] = err
			return
		}
		defer traces.Release(names[i])
		defer sp.Time(phaseModelBuild)()
		built[i], errs[i] = badco.Build(tr, cfg)
	}); err != nil {
		return nil, err
	}
	models := make(map[string]*badco.Model, len(names))
	for i, name := range names {
		if errs[i] != nil {
			return nil, fmt.Errorf("multicore: building model %s: %w", name, errs[i])
		}
		models[name] = built[i]
	}
	return models, nil
}
