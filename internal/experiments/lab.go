// Package experiments reproduces every table and figure of the paper's
// evaluation, plus the extension experiments beyond it. A Lab owns the
// experimental state — benchmark traces, BADCO models, workload
// populations and memoized IPC tables per (core count, policy,
// simulator) — and each experiment reads from it and emits a printable
// Table.
//
// Experiments are registered implementations of the Experiment interface
// (see registry.go): each declares its name, the expensive Lab products
// it reads as a []Request, and a Run method producing its Table.
// cmd/mcbench and the public mcbench package dispatch through the
// registry instead of hard-coded switches.
//
// All lazy state is memoized with per-key single-flight semantics, so a
// Lab is safe for concurrent use: two goroutines asking for the same
// table block on one computation, while different tables build in
// parallel. Lab.Warm precomputes a whole campaign's plan with bounded
// parallelism. Everything is context-aware: cancelling the context
// aborts in-flight population sweeps promptly, and failed (cancelled)
// computations are not memoized, so a later call retries cleanly.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcbench/internal/badco"
	"mcbench/internal/bench"
	"mcbench/internal/cache"
	"mcbench/internal/metrics"
	"mcbench/internal/multicore"
	"mcbench/internal/profile"
	"mcbench/internal/results"
	"mcbench/internal/telemetry"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
	"mcbench/internal/workload"
)

// Config scales the experimental campaign. DefaultConfig matches the
// paper's counts; QuickConfig shrinks everything for tests and smoke
// runs.
type Config struct {
	TraceLen      int   // µops per benchmark trace
	Pop8Size      int   // sampled population size for 8 cores (paper: 10000)
	Pop4Limit     int   // 0 = full 12650-workload population, else subsample
	DetailedCount int   // workloads simulated with the detailed model (paper: 250)
	Fig3Trials    int   // samples per point in Fig. 3 (paper: 1000)
	Fig6Trials    int   // samples per point in Fig. 6 (paper: 10000)
	Fig7Trials    int   // samples per point in Fig. 7 (paper: 100)
	Seed          int64 // master seed; all randomness derives from it

	// Source selects the benchmark population the lab studies. nil means
	// the paper's fixed 22-benchmark suite. All memoized products and
	// persisted tables are keyed by the source's identity, so labs over
	// different sources never share (or clobber) each other's state.
	Source bench.Source

	// PopLimit, when positive, caps every workload population at a
	// uniform sample of that size regardless of core count. It is the
	// knob for big scaled sources, whose full enumerations are
	// astronomically large; the core-count-specific Pop8Size/Pop4Limit
	// take precedence where they apply.
	PopLimit int

	// PopScaleBs are the benchmark-population sizes B the
	// population-scaling experiment sweeps (each via a scaled:B source
	// derived from Seed); PopScaleSample is the workload sample size per
	// B.
	PopScaleBs     []int
	PopScaleSample int

	// CacheDir, when non-empty, persists IPC tables (the expensive
	// population sweeps) across runs via the results package.
	CacheDir string

	// RemoteFetch, when non-nil (and CacheDir is set), is installed as the
	// store's read-through fetcher: a local cache miss consults it before
	// falling back to compute. The fleet wires it to peer /cache/{key}
	// fetches so any node can serve any table; fetched bytes are
	// checksum-verified before use and any failure is a plain miss.
	RemoteFetch func(key string) (data []byte, ok bool, err error)

	// Warmup, when positive, runs every workload of the population
	// sweeps, detailed and BADCO, for that many committed µops per core
	// before its measurement window begins (multicore.Spec.Warmup). Each
	// table warms under the policy it measures, as every other warmed
	// run does. Warmed tables persist under distinct cache keys. The
	// default 0 measures from reset.
	Warmup int

	// Sampling, when enabled, runs every detailed-simulator sweep under
	// SMARTS-style systematic sampling (multicore.Spec.Sampling)
	// instead of exactly: per spec.Unit µops one window of spec.Window
	// µops is measured in detail after spec.Warmup detailed warmup µops,
	// with the gap fast-forwarded under functional warming. The
	// resulting tables are estimates — they persist under distinct cache
	// keys carrying the spec, with per-workload confidence half-widths
	// and cv columns alongside the IPC. Mutually exclusive with Warmup
	// (the sampled driver owns its own warmup structure). The zero spec
	// keeps every sweep, key and persisted file exactly as before.
	Sampling multicore.SamplingSpec

	// Observer, when non-nil, receives a ProductEvent whenever an
	// expensive memoized product is computed (or loaded from the
	// persistent cache): sweeps starting and finishing, models and
	// reference measurements building. It is the progress feed the serve
	// subsystem streams to clients. Memo hits emit nothing — the product
	// was already observed when it was built. The callback runs on the
	// computing goroutine and must not block.
	Observer func(ProductEvent)

	// Metrics, when non-nil, is the telemetry registry the lab records
	// into: product latencies, per-phase timing breakdowns (trace load,
	// model build, warmup, fast-forward, measured window, store save),
	// persistent-cache hit/miss counters and the store's operation
	// counters. nil records into telemetry.Default(), the process-wide
	// registry that mcbench.Metrics() snapshots; the serve subsystem
	// passes a per-server registry so co-resident servers don't mix
	// series.
	Metrics *telemetry.Registry
}

// ProductEvent reports the lifecycle of one expensive Lab product. Sim
// matches the campaign Simulator names ("badco", "detailed", "ref",
// "mpki", "models"); Cores and Policy are set where the product is keyed
// by them. Phase is "start" when a computation begins and "done" when it
// finishes (Err non-nil on failure); a product served from the
// persistent cache emits a single "done" with Cached set.
type ProductEvent struct {
	Sim     string
	Cores   int
	Policy  string
	Phase   string // "start" | "done"
	Cached  bool
	Rows    int // result rows (table rows, model count, vector length)
	Err     error
	Elapsed time.Duration // set on "done"
}

// DefaultConfig reproduces the paper's experimental scale.
func DefaultConfig() Config {
	return Config{
		TraceLen:       trace.DefaultTraceLen,
		Pop8Size:       10000,
		DetailedCount:  250,
		Fig3Trials:     1000,
		Fig6Trials:     10000,
		Fig7Trials:     100,
		PopScaleBs:     []int{16, 32, 64, 128},
		PopScaleSample: 400,
		Seed:           20130421, // ISPASS 2013 in Austin
	}
}

// QuickConfig returns a reduced campaign for tests: smaller traces,
// subsampled populations and fewer Monte-Carlo trials. The shapes of the
// results are preserved; only their resolution drops.
func QuickConfig() Config {
	return Config{
		TraceLen:       20000,
		Pop8Size:       400,
		Pop4Limit:      800,
		DetailedCount:  40,
		Fig3Trials:     300,
		Fig6Trials:     400,
		Fig7Trials:     60,
		PopScaleBs:     []int{12, 18},
		PopScaleSample: 120,
		Seed:           20130421,
	}
}

// Policies returns the case-study policy list (paper order).
func Policies() []cache.PolicyName { return cache.PaperPolicies() }

// PolicyPairs returns the 10 ordered policy pairs of Figures 4 and 5, as
// (X, Y) with the figure's "X>Y" labelling meaning "is Y better than X".
func PolicyPairs() [][2]cache.PolicyName {
	pols := Policies()
	var pairs [][2]cache.PolicyName
	for i := 0; i < len(pols); i++ {
		for j := i + 1; j < len(pols); j++ {
			pairs = append(pairs, [2]cache.PolicyName{pols[i], pols[j]})
		}
	}
	return pairs
}

// ipcKey indexes memoized IPC tables.
type ipcKey struct {
	cores  int
	policy cache.PolicyName
}

// flight is one in-flight (or completed) computation of a value.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// flightGroup memoizes one value per key with single-flight semantics:
// concurrent callers of the same key block on a single computation, while
// different keys compute independently and may run in parallel. The
// mutex only guards the entry map, never a computation.
//
// A computation that fails (most commonly: its context was cancelled) is
// not memoized — the entry is dropped, the failure is reported to every
// caller blocked on it, and the next caller recomputes. A waiter whose
// own context is cancelled stops waiting with that context's error while
// the computation keeps running for the remaining callers.
type flightGroup[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

// do returns the memoized value for key, computing it at most once.
func (g *flightGroup[K, V]) do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	for {
		g.mu.Lock()
		if g.m == nil {
			g.m = make(map[K]*flight[V])
		}
		if f, ok := g.m[key]; ok {
			g.mu.Unlock()
			select {
			case <-f.done:
				if isCtxErr(f.err) && ctx.Err() == nil {
					// The computing caller was cancelled, but this
					// waiter is live: retry with our own context
					// instead of inheriting someone else's
					// cancellation. (The failed entry was already
					// dropped, so the loop starts a fresh flight.)
					continue
				}
				return f.val, f.err
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
		}
		f := &flight[V]{done: make(chan struct{})}
		g.m[key] = f
		g.mu.Unlock()
		f.val, f.err = compute()
		if f.err != nil {
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
		}
		close(f.done)
		return f.val, f.err
	}
}

// isCtxErr reports whether err is a context cancellation/deadline — the
// only failures worth retrying on behalf of a live waiter (a
// deterministic compute error would just fail again).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// lazy is a single-value flightGroup: a memoized computation with the
// same retry-on-failure and cancellation semantics.
type lazy[V any] struct {
	fg flightGroup[struct{}, V]
}

func (z *lazy[V]) get(ctx context.Context, compute func() (V, error)) (V, error) {
	return z.fg.do(ctx, struct{}{}, compute)
}

// Lab lazily builds and caches all experimental state. The pure products
// (benchmark names, populations, detailed-sample indices, the persistent
// store handle) are cheap and infallible; everything that simulates —
// traces, models, IPC tables, reference IPCs, the MPKI measurement,
// profiles — is context-aware and memoized with single-flight semantics.
type Lab struct {
	cfg Config
	src bench.Source // the benchmark population under study

	namesOnce sync.Once
	names     []string // benchmark order (source order)

	models   lazy[map[string]*badco.Model]
	mpki     lazy[[]float64]          // per benchmark: alone LLC misses per kilo-op
	profiles lazy[[]*profile.Profile] // per benchmark: microarch-independent profile

	storeOnce sync.Once
	store     *results.Store // nil: no CacheDir, or the directory is unusable

	pops      flightGroup[int, *workload.Population]
	detSample flightGroup[int, []int]          // population indices simulated in detail
	refIPC    flightGroup[int, []float64]      // per core count: per-benchmark alone IPC
	badcoIPC  flightGroup[ipcKey, [][]float64] // population IPC tables (BADCO)
	detIPC    flightGroup[ipcKey, [][]float64] // detailed IPC tables over DetSample

	// Sweep counters record how many full population sweeps actually ran
	// (persistent-cache hits excluded); the single-flight regression
	// tests assert exactly one sweep per key.
	badcoSweeps atomic.Int64
	detSweeps   atomic.Int64
}

// SweepCounts reports how many full population sweeps this lab actually
// executed (persistent-cache hits excluded), per simulator. The serve
// subsystem's dedup tests assert on it end to end: N coalesced
// submissions must leave these at one.
func (l *Lab) SweepCounts() (badco, detailed int64) {
	return l.badcoSweeps.Load(), l.detSweeps.Load()
}

// observe forwards a product event to the configured Observer, if any.
func (l *Lab) observe(ev ProductEvent) {
	if l.cfg.Observer != nil {
		l.cfg.Observer(ev)
	}
}

// metrics returns the registry the lab's instrumentation records into.
func (l *Lab) metrics() *telemetry.Registry {
	if l.cfg.Metrics != nil {
		return l.cfg.Metrics
	}
	return telemetry.Default()
}

// cacheHit and cacheMiss count persistent-cache outcomes per simulator —
// the lab-level view of whether an IPC table request fell through to a
// full population sweep.
func (l *Lab) cacheHit(sim string) {
	l.metrics().Counter("mcbench_lab_cache_hits_total",
		"IPC tables served from the persistent results cache",
		telemetry.L("sim", sim)).Inc()
}

func (l *Lab) cacheMiss(sim string) {
	l.metrics().Counter("mcbench_lab_cache_misses_total",
		"IPC table cache misses that fell through to a full sweep",
		telemetry.L("sim", sim)).Inc()
}

// observeRun brackets a product computation with start/done events and a
// telemetry span. The span rides the context into the simulation kernel,
// which charges each phase (trace load, model build, warmup,
// fast-forward, measured window, store save) as it crosses the boundary;
// on success the breakdown and the end-to-end latency are recorded into
// the lab's registry.
func observeRun[V any](l *Lab, ctx context.Context, ev ProductEvent, rows func(V) int, compute func(context.Context) (V, error)) (V, error) {
	ev.Phase = "start"
	l.observe(ev)
	sp := telemetry.StartSpan()
	start := time.Now()
	v, err := compute(telemetry.NewContext(ctx, sp))
	ev.Phase, ev.Err, ev.Elapsed = "done", err, time.Since(start)
	if err == nil {
		ev.Rows = rows(v)
		l.recordProduct(ev, sp)
	}
	l.observe(ev)
	return v, err
}

// recordProduct files one successful product computation into the lab
// registry: total latency keyed by the product identity, plus one
// observation per span phase totalling the time that product spent in it.
func (l *Lab) recordProduct(ev ProductEvent, sp *telemetry.Span) {
	r := l.metrics()
	sampling := "exact"
	if ev.Sim == string(SimDetailed) && l.cfg.Sampling.Enabled() {
		sampling = "sampled"
	}
	r.Histogram("mcbench_lab_product_seconds",
		"end-to-end latency of expensive lab products",
		telemetry.L("sim", ev.Sim),
		telemetry.L("cores", strconv.Itoa(ev.Cores)),
		telemetry.L("policy", ev.Policy),
		telemetry.L("sampling", sampling)).ObserveDuration(ev.Elapsed)
	for _, ph := range sp.Breakdown() {
		r.Histogram("mcbench_lab_phase_seconds",
			"time spent per simulation phase within a product computation",
			telemetry.L("sim", ev.Sim),
			telemetry.L("phase", ph.Name)).Observe(int64(ph.Total))
	}
}

// NewLab creates a Lab with the given configuration. A nil Config.Source
// means the paper's fixed suite.
func NewLab(cfg Config) *Lab {
	src := cfg.Source
	if src == nil {
		src = bench.NewSuite()
		cfg.Source = src
	}
	return &Lab{cfg: cfg, src: src}
}

// Config returns the lab's configuration.
func (l *Lab) Config() Config { return l.cfg }

// Source returns the benchmark source the lab studies.
func (l *Lab) Source() bench.Source { return l.src }

// Provider returns the lab's source bound to its configured trace
// length — the handle everything that needs a raw trace resolves
// through. Traces build lazily on first use; consumers whose use of a
// trace is one-shot (model building, the alone measurements) release it
// afterwards so resident memory tracks the in-flight working set.
func (l *Lab) Provider() bench.Provider { return bench.At(l.src, l.cfg.TraceLen) }

// sourceKey is the identity the lab's persisted products are keyed by.
// The default suite maps to the empty string so cache files written
// before sources existed stay loadable.
func (l *Lab) sourceKey() string {
	if name := l.src.Name(); name != "suite" {
		return name
	}
	return ""
}

// Names returns the benchmark names in index order. It never builds a
// trace (the order is the source definition order), so it is infallible.
func (l *Lab) Names() []string {
	l.namesOnce.Do(func() { l.names = l.src.Names() })
	return l.names
}

// Models returns the BADCO models, building them on first use (two
// detailed calibration runs per benchmark, in parallel). Each
// benchmark's trace is resolved lazily just before its calibration runs
// and released right after its model is built, so peak trace memory is
// O(parallelism · TraceLen) instead of O(B · TraceLen) — the property
// that makes paper-scale populations (B up to 512) fit a small host.
func (l *Lab) Models(ctx context.Context) (map[string]*badco.Model, error) {
	return l.models.get(ctx, func() (map[string]*badco.Model, error) {
		return observeRun(l, ctx, ProductEvent{Sim: "models"},
			func(m map[string]*badco.Model) int { return len(m) },
			func(ctx context.Context) (map[string]*badco.Model, error) {
				return multicore.BuildModels(ctx, l.Provider(), l.Names(), badco.DefaultBuildConfig())
			})
	})
}

// resultStore returns the persistent store, opened once, or nil when
// CacheDir is unset (or unusable — persistence is best-effort).
func (l *Lab) resultStore() *results.Store {
	l.storeOnce.Do(func() {
		if l.cfg.CacheDir == "" {
			return
		}
		if s, err := results.Open(l.cfg.CacheDir); err == nil {
			if l.cfg.RemoteFetch != nil {
				s.SetFetch(results.Fetcher(l.cfg.RemoteFetch))
			}
			s.Instrument(l.metrics())
			l.store = s
		}
	})
	return l.store
}

// maxEnumerate bounds the population size Population will materialise
// as a full enumeration when no explicit limit is configured; anything
// larger falls back to a fallbackPopulation-sized uniform sample. The
// bound comfortably covers the paper's geometries (12650 workloads at
// 4 cores over the suite) while keeping a large scaled source from
// enumerating billions of workloads into memory.
const (
	maxEnumerate       = 100_000
	fallbackPopulation = 10_000
)

// Population returns the workload population for the given core count:
// the full enumeration where it is tractable (2 and 4 cores over the
// paper's suite) and a uniform sample where it is not — per Pop8Size for
// 8 cores, Pop4Limit for 4, and PopLimit for any count (the scaled-source
// knob); with no limit configured, populations beyond maxEnumerate are
// sampled at fallbackPopulation rather than enumerated. Sampling draws
// from the full C(B+K-1, K) multiset population, whose size may saturate
// uint64 for large sources; populations are pure combinatorics — no
// simulation — so this is infallible.
func (l *Lab) Population(cores int) *workload.Population {
	pop, _ := l.pops.do(context.Background(), cores, func() (*workload.Population, error) {
		b := len(l.Names())
		total, exact := workload.PopulationSize(b, cores)
		limit := 0
		switch {
		case cores == 8:
			limit = l.cfg.Pop8Size
		case cores == 4 && l.cfg.Pop4Limit > 0:
			limit = l.cfg.Pop4Limit
		}
		if limit == 0 {
			limit = l.cfg.PopLimit
		}
		if limit == 0 && (!exact || total > maxEnumerate) {
			limit = fallbackPopulation
		}
		if limit > 0 && (!exact || uint64(limit) < total) {
			rng := rand.New(rand.NewSource(l.cfg.Seed + int64(cores)))
			return workload.SampleUniform(rng, b, cores, limit), nil
		}
		return workload.Enumerate(b, cores), nil
	})
	return pop
}

// isFullPopulation reports whether n workloads cover the whole multiset
// population of the lab's source at the given core count.
func (l *Lab) isFullPopulation(n, cores int) bool {
	size, exact := workload.PopulationSize(len(l.Names()), cores)
	return exact && uint64(n) == size
}

// toMulticore converts a workload of benchmark indices into names.
func (l *Lab) toMulticore(w workload.Workload) multicore.Workload {
	names := l.Names()
	out := make(multicore.Workload, len(w))
	for i, b := range w {
		out[i] = names[b]
	}
	return out
}

// BadcoIPC returns the per-workload per-core IPC table of the population
// for (cores, policy), simulated with BADCO machines. Tables are
// memoized (and persisted when CacheDir is set); the first caller per key
// runs the full population sweep while concurrent callers for the same
// key block on it, and different keys sweep in parallel.
func (l *Lab) BadcoIPC(ctx context.Context, cores int, policy cache.PolicyName) ([][]float64, error) {
	return l.badcoIPC.do(ctx, ipcKey{cores, policy}, func() ([][]float64, error) {
		return l.ipcTable(ctx, Request{Sim: SimBadco, Cores: cores, Policy: policy}, l.badcoSweep)
	})
}

// badcoSweep sweeps the whole population with BADCO machines, each
// workload warmed under the measured policy when Config.Warmup is set.
func (l *Lab) badcoSweep(ctx context.Context, cores int, policy cache.PolicyName) (results.IPCTable, error) {
	models, err := l.Models(ctx)
	if err != nil {
		return results.IPCTable{}, err
	}
	l.badcoSweeps.Add(1)
	pop := l.Population(cores)
	ws := make([]multicore.Workload, pop.Size())
	for i, w := range pop.Workloads {
		ws[i] = l.toMulticore(w)
	}
	spec := multicore.Spec{Engine: multicore.BADCO, Policy: policy, Warmup: uint64(l.cfg.Warmup)}
	rs, err := multicore.Sweep(ctx, ws, spec, l.Provider(), models)
	if err != nil {
		return results.IPCTable{}, fmt.Errorf("experiments: BADCO sweep (%d cores, %s): %w", cores, policy, err)
	}
	return tableOf(rs), nil
}

// ipcTable is the body of BadcoIPC and DetailedIPC: load the product's
// persisted table, or else run the sweep and save its table.
func (l *Lab) ipcTable(ctx context.Context, r Request, sweep func(context.Context, int, cache.PolicyName) (results.IPCTable, error)) ([][]float64, error) {
	ev := ProductEvent{Sim: string(r.Sim), Cores: r.Cores, Policy: string(r.Policy)}
	store := l.resultStore()
	var id results.Identity
	if store != nil {
		id, _ = l.identity(r)
		if t, ok, err := store.Load(id); err == nil && ok {
			l.cacheHit(ev.Sim)
			ev.Phase, ev.Cached, ev.Rows = "done", true, len(t.IPC)
			l.observe(ev)
			return t.IPC, nil
		}
	}
	l.cacheMiss(ev.Sim)
	return observeRun(l, ctx, ev, func(t [][]float64) int { return len(t) }, func(ctx context.Context) ([][]float64, error) {
		t, err := sweep(ctx, r.Cores, r.Policy)
		if err != nil {
			return nil, err
		}
		// Persistence is best-effort: a failed save still returns the
		// table to the caller.
		stop := telemetry.FromContext(ctx).Time("store_save")
		if store != nil {
			t.Identity = id
			_ = store.Save(&t)
		}
		stop()
		return t.IPC, nil
	})
}

// tableOf collects a sweep's per-workload IPC rows, plus the confidence
// and cv columns a sampled sweep fills in.
func tableOf(rs []multicore.Result) results.IPCTable {
	var t results.IPCTable
	for _, r := range rs {
		t.IPC = append(t.IPC, r.IPC)
		if r.CIHalf != nil {
			t.CI = append(t.CI, r.CIHalf)
			t.CV = append(t.CV, r.CV)
		}
	}
	return t
}

// DetSample returns the population indices of the workloads simulated
// with the detailed model for the given core count: the full population
// for 2 cores (the paper simulates all 253 workloads with Zesto),
// otherwise a DetailedCount random subset (paper: 250 for 4 and 8 cores).
func (l *Lab) DetSample(cores int) []int {
	idx, _ := l.detSample.do(context.Background(), cores, func() ([]int, error) {
		n := l.Population(cores).Size()
		if cores <= 2 || n <= l.cfg.DetailedCount+3 {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			return idx, nil
		}
		rng := rand.New(rand.NewSource(l.cfg.Seed + 100 + int64(cores)))
		return rng.Perm(n)[:l.cfg.DetailedCount], nil
	})
	return idx
}

// DetailedIPC returns the per-workload per-core IPC table over the
// DetSample workloads for (cores, policy), simulated with the detailed
// model. Row i corresponds to DetSample(cores)[i].
func (l *Lab) DetailedIPC(ctx context.Context, cores int, policy cache.PolicyName) ([][]float64, error) {
	return l.detIPC.do(ctx, ipcKey{cores, policy}, func() ([][]float64, error) {
		return l.ipcTable(ctx, Request{Sim: SimDetailed, Cores: cores, Policy: policy}, l.detailedSweep)
	})
}

// detWorkloads names the DetSample workloads for the core count.
func (l *Lab) detWorkloads(cores int) []multicore.Workload {
	pop := l.Population(cores)
	sample := l.DetSample(cores)
	ws := make([]multicore.Workload, len(sample))
	for i, wi := range sample {
		ws[i] = l.toMulticore(pop.Workloads[wi])
	}
	return ws
}

// detailedSweep computes one detailed IPC table over the detailed
// sample: exact or sampled (Config.Sampling; a sampled sweep also fills
// the confidence and cv columns), warmed under the measured policy when
// Config.Warmup is set. The sweep resolves traces lazily through the
// source: only benchmarks that actually appear in the sample are ever
// built.
func (l *Lab) detailedSweep(ctx context.Context, cores int, policy cache.PolicyName) (results.IPCTable, error) {
	l.detSweeps.Add(1)
	spec := multicore.Spec{Policy: policy, Warmup: uint64(l.cfg.Warmup), Sampling: l.cfg.Sampling}
	rs, err := multicore.Sweep(ctx, l.detWorkloads(cores), spec, l.Provider(), nil)
	if err != nil {
		return results.IPCTable{}, fmt.Errorf("experiments: detailed sweep (%d cores, %s, %s): %w", cores, policy, l.cfg.Sampling, err)
	}
	return tableOf(rs), nil
}

// Identity returns the lab-level identity of the tables this lab
// persists: benchmark source, trace length, seed, warmup, sampling spec
// and the simulator model's fingerprint. Fleet nodes must agree on it
// to share tables; a product's identity adds its own fields (identity).
// Computing the fingerprint runs a short probe simulation, once per
// process.
func (l *Lab) Identity() results.Identity {
	id := results.Identity{
		TraceLen: l.cfg.TraceLen, Seed: l.cfg.Seed, Source: l.sourceKey(),
		Warmup: l.cfg.Warmup, Model: multicore.Fingerprint(),
	}
	id.SetSampling(l.cfg.Sampling)
	return id
}

// identity returns the identity of the persisted table a request
// produces. Only the population IPC tables — SimBadco and SimDetailed
// with a positive core count — have one: the reference/MPKI/model
// products are in-memory memos every node rebuilds cheaply on its own.
// Detailed tables name the population their sample was drawn from
// (DetSample is deterministic given the seed and population): two
// configs with equal sample sizes but different Pop4Limit/Pop8Size must
// not share a table. Only detailed tables carry the sampling spec —
// BADCO never runs sampled, and stamping its tables would fragment their
// cache for no reason.
func (l *Lab) identity(r Request) (results.Identity, bool) {
	r = r.Normalized()
	if r.Cores <= 0 || r.Sim != SimBadco && r.Sim != SimDetailed {
		return results.Identity{}, false
	}
	id := l.Identity()
	id.Simulator, id.Cores, id.Policy = string(r.Sim), r.Cores, string(r.Policy)
	if r.Sim == SimBadco {
		id.Population = l.Population(r.Cores).Size()
		id.SetSampling(multicore.SamplingSpec{})
	} else {
		id.Population = len(l.DetSample(r.Cores))
		id.Universe = l.Population(r.Cores).Size()
	}
	return id, true
}

// RefIPC returns the per-benchmark single-thread reference IPC on the
// cores-sized machine (benchmark alone, LRU uncore, BADCO), used by the
// speedup metrics WSU and HSU.
func (l *Lab) RefIPC(ctx context.Context, cores int) ([]float64, error) {
	return l.refIPC.do(ctx, cores, func() ([]float64, error) {
		return observeRun(l, ctx, ProductEvent{Sim: "ref", Cores: cores},
			func(v []float64) int { return len(v) },
			func(ctx context.Context) ([]float64, error) { return l.refIPCCompute(ctx, cores) })
	})
}

// refIPCCompute is the RefIPC computation behind its memo and observer.
func (l *Lab) refIPCCompute(ctx context.Context, cores int) ([]float64, error) {
	models, err := l.Models(ctx)
	if err != nil {
		return nil, err
	}
	names := l.Names()
	// Alone on the same uncore configuration as the K-core machine:
	// the uncore is built for `cores` but only core 0 is populated.
	// The runs are independent, so they draw on the shared
	// simulation budget like the sweeps do.
	out := make([]float64, len(names))
	errs := make([]error, len(names))
	if err := multicore.RunBounded(ctx, len(names), func(i int) {
		out[i], errs[i] = aloneOn(cores, multicore.Workload{names[i]}, models)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// aloneOn runs one benchmark alone against a cores-sized LRU uncore with
// BADCO and returns its IPC.
func aloneOn(cores int, w multicore.Workload, models map[string]*badco.Model) (float64, error) {
	unc, err := uncore.New(uncore.ConfigFor(cores, cache.LRU))
	if err != nil {
		return 0, err
	}
	m := models[w[0]]
	ma, err := badco.NewMachine(0, m, unc)
	if err != nil {
		return 0, err
	}
	end := ma.RunIterations(1)
	if end == 0 {
		return 0, fmt.Errorf("experiments: zero cycles for %s", w[0])
	}
	return float64(m.TraceLen) / float64(end), nil
}

// RefTable expands per-benchmark reference IPCs into a per-workload
// per-core table aligned with the population.
func (l *Lab) RefTable(ctx context.Context, cores int) ([][]float64, error) {
	pop := l.Population(cores)
	ref, err := l.RefIPC(ctx, cores)
	if err != nil {
		return nil, err
	}
	table := make([][]float64, pop.Size())
	for i, w := range pop.Workloads {
		row := make([]float64, len(w))
		for k, b := range w {
			row[k] = ref[b]
		}
		table[i] = row
	}
	return table, nil
}

// refRows picks the reference rows for a subset of population indices.
func refRows(ref [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for i, j := range idx {
		out[i] = ref[j]
	}
	return out
}

// Diffs returns the per-workload differences d(w) between policies X and
// Y under the metric, over the BADCO population table (the CLT-domain
// values driving the confidence machinery).
func (l *Lab) Diffs(ctx context.Context, cores int, m metrics.Metric, x, y cache.PolicyName) ([]float64, error) {
	ref, err := l.RefTable(ctx, cores)
	if err != nil {
		return nil, err
	}
	ipcX, err := l.BadcoIPC(ctx, cores, x)
	if err != nil {
		return nil, err
	}
	ipcY, err := l.BadcoIPC(ctx, cores, y)
	if err != nil {
		return nil, err
	}
	return m.Diffs(m.Throughputs(ipcX, ref), m.Throughputs(ipcY, ref)), nil
}

// DetailedDiffs is Diffs over the detailed-simulator sample.
func (l *Lab) DetailedDiffs(ctx context.Context, cores int, m metrics.Metric, x, y cache.PolicyName) ([]float64, error) {
	refAll, err := l.RefTable(ctx, cores)
	if err != nil {
		return nil, err
	}
	ref := refRows(refAll, l.DetSample(cores))
	ipcX, err := l.DetailedIPC(ctx, cores, x)
	if err != nil {
		return nil, err
	}
	ipcY, err := l.DetailedIPC(ctx, cores, y)
	if err != nil {
		return nil, err
	}
	return m.Diffs(m.Throughputs(ipcX, ref), m.Throughputs(ipcY, ref)), nil
}

// BadcoDiffsAt is Diffs restricted to a subset of population indices
// (e.g. the detailed sample, for Fig. 4's middle bars).
func (l *Lab) BadcoDiffsAt(ctx context.Context, cores int, m metrics.Metric, x, y cache.PolicyName, idx []int) ([]float64, error) {
	all, err := l.Diffs(ctx, cores, m, x, y)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = all[j]
	}
	return out, nil
}

// MPKI returns per-benchmark LLC misses per kilo-instruction, measured
// with the detailed simulator running each benchmark alone on the 1-core
// LRU configuration (the Table IV measurement).
func (l *Lab) MPKI(ctx context.Context) ([]float64, error) {
	return l.mpki.get(ctx, func() ([]float64, error) {
		return observeRun(l, ctx, ProductEvent{Sim: "mpki"},
			func(v []float64) int { return len(v) },
			func(ctx context.Context) ([]float64, error) { return l.mpkiCompute(ctx) })
	})
}

// mpkiCompute is the MPKI measurement behind its memo and observer.
func (l *Lab) mpkiCompute(ctx context.Context) ([]float64, error) {
	names := l.Names()
	prov := l.Provider()
	out := make([]float64, len(names))
	errs := make([]error, len(names))
	if err := multicore.RunBounded(ctx, len(names), func(i int) {
		tr, err := prov.Trace(ctx, names[i])
		if err != nil {
			errs[i] = err
			return
		}
		defer prov.Release(names[i])
		out[i], errs[i] = measureMPKI(tr)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
