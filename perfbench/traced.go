package main

// Traced slices of the four workloads, the per-layer metrics derived
// from their spans, and the traced run that reports them.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcbench"
	"mcbench/internal/badco"
	"mcbench/internal/cache"
	"mcbench/internal/multicore"
	"mcbench/internal/trace"
)

// slice is one workload's traced re-drive.
type slice struct {
	workload string
	roots    []rootSpan
	wallNS   int64 // traced fan-out wall time
	libNS    int64 // the same co-schedules through the library, untraced
	failed   int
	genNS    float64 // trace.Generate, summed over benchmarks
	genUops  uint64
	buildNS  float64 // badco.Build, summed
	builds   int
	// served only: per-job times in ms.
	queueMS, runMS, clientMS, simMS []float64
}

// redrive runs the specs on the traced loop over the process's
// simulation slots, in index order like multicore.RunBounded, and
// compares each co-schedule's cycles with want. A co-schedule that
// errs or differs counts as failed.
func (s *slice) redrive(ctx context.Context, specs []spec, traces map[string]*trace.Trace, models map[string]*badco.Model, want [][]uint64, clock float64) {
	slots := simSlots()
	sem := make(chan int, slots)
	for i := 0; i < slots; i++ {
		sem <- i
	}
	roots := make([]rootSpan, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	start := nanotime()
	for i, sp := range specs {
		slot := <-sem
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { sem <- slot }()
			t0 := nanotime()
			m, err := newMachine(sp, traces, models, clock, uint64(i)*0x9e3779b97f4a7c15+1)
			if err != nil {
				errs[i] = err
				return
			}
			var cyc []uint64
			if sp.engine == "sampled" {
				cyc, err = m.runSampled(ctx, sp.quota)
			} else {
				cyc, err = m.runExact(ctx, sp.quota)
			}
			t1 := nanotime()
			if err != nil {
				errs[i] = err
				return
			}
			roots[i] = m.span(sp, t0-start, t1-start)
			roots[i].ID = fmt.Sprintf("%s/%d", s.workload, i)
			roots[i].Slot = slot
			if !sameCycles(cyc, want[i]) {
				errs[i] = fmt.Errorf("co-schedule %d (%v): traced cycles %v, library %v", i, sp.names, cyc, want[i])
			}
		}()
	}
	wg.Wait()
	s.wallNS = nanotime() - start
	s.roots = append(s.roots, roots...)
	for _, err := range errs {
		if err != nil {
			s.failed++
			fmt.Printf("traced %s: %v\n", s.workload, err)
		}
	}
}

// simSlots is the library's simulation parallelism: multicore's sweeps
// run GOMAXPROCS co-schedules at a time.
func simSlots() int { return runtime.GOMAXPROCS(0) }

// generate builds the n-µop traces of the named benchmarks, timing each
// trace.Generate call.
func (s *slice) generate(names []string, n int) (map[string]*trace.Trace, error) {
	out := map[string]*trace.Trace{}
	for _, name := range names {
		if out[name] != nil {
			continue
		}
		p, ok := trace.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		t0 := nanotime()
		tr, err := trace.Generate(p, n)
		s.genNS += float64(nanotime() - t0)
		if err != nil {
			return nil, err
		}
		s.genUops += uint64(n)
		out[name] = tr
	}
	return out, nil
}

// build makes the BADCO models of the given traces, timing each
// badco.Build call.
func (s *slice) build(traces map[string]*trace.Trace) (map[string]*badco.Model, error) {
	out := map[string]*badco.Model{}
	for name, tr := range traces {
		t0 := nanotime()
		m, err := badco.Build(tr, badco.DefaultBuildConfig())
		s.buildNS += float64(nanotime() - t0)
		if err != nil {
			return nil, err
		}
		s.builds++
		out[name] = m
	}
	return out, nil
}

func distinct(pop [][]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range pop {
		for _, n := range w {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Traced slice sizes, seeded prefixes of each workload's population.
const (
	tracedBadco    = 44
	tracedDetailed = 64
	tracedSampled  = 32
	tracedJobs     = 64
)

// compare times the slice through the library, untraced, before and
// after the traced re-drive; the mean of the two is the untraced time,
// so a drift of host speed across the three does not read as tracing
// overhead. The re-drive must reproduce want, or the first library
// run's cycles when want is nil.
func (s *slice) compare(ctx context.Context, lib func() ([][]uint64, error), want [][]uint64, specs []spec, traces map[string]*trace.Trace, models map[string]*badco.Model, clock float64) error {
	t0 := nanotime()
	got, err := lib()
	t1 := nanotime()
	if err != nil {
		return err
	}
	if want == nil {
		want = got
	}
	s.redrive(ctx, specs, traces, models, want, clock)
	t2 := nanotime()
	if _, err := lib(); err != nil {
		return err
	}
	s.libNS = (t1 - t0 + nanotime() - t2) / 2
	return nil
}

func traceBadcoPop(ctx context.Context, seed int64, clock float64) (*slice, error) {
	s := &slice{workload: "badco-pop"}
	pop := groups(seed, 4, badcoPopSize)[:tracedBadco]
	traces, err := s.generate(trace.SuiteNames(), popTraceLen)
	if err != nil {
		return nil, err
	}
	models, err := s.build(traces)
	if err != nil {
		return nil, err
	}
	specs := make([]spec, len(pop))
	for i, w := range pop {
		specs[i] = spec{names: w, engine: "badco", quota: popTraceLen}
	}
	return s, s.compare(ctx, func() ([][]uint64, error) {
		rs, err := multicore.SweepApproximate(ctx, asWorkloads(pop), models, cache.LRU, popTraceLen)
		return firstCycles(fromMulticore(rs)), err
	}, nil, specs, traces, models, clock)
}

func traceDetailedPop(ctx context.Context, seed int64, clock float64) (*slice, error) {
	s := &slice{workload: "detailed-pop"}
	pop := pairs(seed)[:tracedDetailed]
	traces, err := s.generate(trace.SuiteNames(), popTraceLen)
	if err != nil {
		return nil, err
	}
	// detailed-pop builds every model in set-up for its accuracy pass.
	if _, err := s.build(traces); err != nil {
		return nil, err
	}
	src, err := mcbench.Suite("suite")
	if err != nil {
		return nil, err
	}
	if err := warmSource(ctx, src, popTraceLen); err != nil {
		return nil, err
	}
	specs := make([]spec, len(pop))
	for i, w := range pop {
		specs[i] = spec{names: w, engine: "detailed", quota: popTraceLen}
	}
	return s, s.compare(ctx, func() ([][]uint64, error) {
		rs, err := mcbench.Sweep(ctx, pop, mcbench.WithSimulator(mcbench.Detailed), mcbench.WithPolicy(mcbench.LRU),
			mcbench.WithTraceLen(popTraceLen), mcbench.WithSuite(src))
		return firstCycles(fromPublic(rs)), err
	}, nil, specs, traces, nil, clock)
}

func traceSampledLong(ctx context.Context, seed int64, clock float64) (*slice, error) {
	s := &slice{workload: "sampled-long"}
	pop := evenPairs(seed)[:tracedSampled]
	traces, err := s.generate(trace.SuiteNames(), longTraceLen)
	if err != nil {
		return nil, err
	}
	src, err := mcbench.Suite("suite")
	if err != nil {
		return nil, err
	}
	if err := warmSource(ctx, src, longTraceLen); err != nil {
		return nil, err
	}
	specs := make([]spec, len(pop))
	for i, w := range pop {
		specs[i] = spec{names: w, engine: "sampled", quota: longTraceLen}
	}
	return s, s.compare(ctx, func() ([][]uint64, error) {
		rs, err := mcbench.Sweep(ctx, pop, mcbench.WithSimulator(mcbench.Detailed), mcbench.WithPolicy(mcbench.LRU),
			mcbench.WithTraceLen(longTraceLen), mcbench.WithSuite(src),
			mcbench.WithSampling(samplingSpec[0], samplingSpec[1], samplingSpec[2]))
		return firstCycles(fromPublic(rs)), err
	}, nil, specs, traces, nil, clock)
}

// traceServed runs the closed loop for a fixed number of jobs, reading
// each job's server-side times, then runs the same pairs in-process
// through mcbench.Simulate and re-drives them on the traced loop.
func traceServed(ctx context.Context, seed int64, clock float64) (*slice, error) {
	s := &slice{workload: "served"}
	pop := pairs(seed)
	srv, err := startServer(ctx)
	if err != nil {
		return nil, err
	}
	cs, err := srv.clients(servedClients)
	if err != nil {
		srv.stop()
		return nil, err
	}
	recs, _ := closedLoop(ctx, cs, pop, true, func(done int, _ time.Duration) bool { return done < tracedJobs })
	if err := srv.stop(); err != nil {
		return nil, err
	}
	jobs := make([]jobSpec, len(recs))
	want := make([][]uint64, len(recs))
	for i, r := range recs {
		jobs[i] = servedJob(pop, r.k)
		if r.err != nil {
			return nil, fmt.Errorf("job %d: %w", r.k, r.err)
		}
		want[i] = r.run.cycles
		st := r.status
		s.queueMS = append(s.queueMS, st.Started.Sub(st.Created).Seconds()*1e3)
		s.runMS = append(s.runMS, st.Finished.Sub(st.Started).Seconds()*1e3)
		s.clientMS = append(s.clientMS, (r.latency-st.Finished.Sub(st.Created)).Seconds()*1e3)
	}

	// The same jobs in-process, two at a time like the two clients. The
	// server regenerates each job's traces, so the local run releases
	// them after every job too.
	src, err := mcbench.Suite("suite")
	if err != nil {
		return nil, err
	}
	s.simMS = make([]float64, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range servedClients {
		wg.Add(1)
		go func() { // not multicore.RunBounded: Simulate draws on its slots
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				t0 := nanotime()
				_, errs[i] = mcbench.Simulate(ctx, jobs[i].pair, mcbench.WithSimulator(jobs[i].engine),
					mcbench.WithPolicy(mcbench.LRU), mcbench.WithTraceLen(popTraceLen), mcbench.WithSuite(src))
				for _, n := range jobs[i].pair {
					src.Release(n)
				}
				s.simMS[i] = float64(nanotime()-t0) / 1e6
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var names [][]string
	for _, j := range jobs {
		names = append(names, j.pair)
	}
	traces, err := s.generate(distinct(names), popTraceLen)
	if err != nil {
		return nil, err
	}
	models, err := s.build(traces)
	if err != nil {
		return nil, err
	}
	specs := make([]spec, len(jobs))
	var bw, dw []multicore.Workload
	for i, j := range jobs {
		specs[i] = spec{names: j.pair, engine: j.engine.String(), quota: popTraceLen}
		if j.engine == mcbench.BADCO {
			bw = append(bw, j.pair)
		} else {
			dw = append(dw, j.pair)
		}
	}
	// The re-drive must reproduce what the server returned.
	return s, s.compare(ctx, func() ([][]uint64, error) {
		if _, err := multicore.SweepApproximate(ctx, bw, models, cache.LRU, popTraceLen); err != nil {
			return nil, err
		}
		_, err := multicore.SweepDetailed(ctx, dw, multicore.TraceMap(traces), cache.LRU, popTraceLen)
		return nil, err
	}, want, specs, traces, models, clock)
}

// tracers are the traced slices, one per workload.
var tracers = []struct {
	name string
	fn   func(context.Context, int64, float64) (*slice, error)
}{
	{"badco-pop", traceBadcoPop},
	{"detailed-pop", traceDetailedPop},
	{"sampled-long", traceSampledLong},
	{"served", traceServed},
}

// layerTotals sums a slice's spans.
type layerTotals struct {
	busy   [nLayers]float64
	calls  [nLayers]uint64
	rootNS float64
	counts counts
}

func (s *slice) totals() layerTotals {
	var t layerTotals
	for _, r := range s.roots {
		t.rootNS += float64(r.EndNS - r.StartNS)
		for i, c := range r.Children {
			t.busy[i] += c.BusyNS
			t.calls[i] += c.Calls
		}
		t.counts.add(r.Counts)
	}
	return t
}

// metricsOf derives the per-layer metrics a slice measures; a metric the
// slice's layers do not produce is absent.
func (s *slice) metricsOf(clock float64) map[string]metric {
	t := s.totals()
	c := t.counts
	m := map[string]metric{}
	put := func(name string, ok bool, v float64, unit string) {
		if ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			m[name] = metric{Value: v, Unit: unit}
		}
	}
	kuop := float64(c.ExecUops) / 1000
	allKuop := float64(c.ExecUops+c.FFUops) / 1000
	put("trace.gen_ns_per_uop", s.genUops > 0, s.genNS/float64(s.genUops), "ns")
	put("badco.build_ms_per_bench", s.builds > 0, s.buildNS/float64(s.builds)/1e6, "ms")
	var badcoExec, cpuExec uint64 // the served slice runs both engines
	for _, r := range s.roots {
		if r.Engine == "badco" {
			badcoExec += r.Counts.ExecUops
		} else {
			cpuExec += r.Counts.ExecUops
		}
	}
	put("badco.ns_per_exec_uop", badcoExec > 0, t.busy[layerBadco]/float64(badcoExec), "ns")
	put("cpu.ns_per_exec_uop", cpuExec > 0, t.busy[layerCPU]/float64(cpuExec), "ns")
	put("cpu.ff_ns_per_uop", c.FFUops > 0, t.busy[layerCPUFF]/float64(c.FFUops), "ns")
	put("cpu.branch_mpki", c.DetailedUop > 0, float64(c.BranchMiss)/float64(c.DetailedUop)*1000, "1/kuop")
	put("cpu.dl1_mpki", c.DetailedUop > 0, float64(c.DL1Miss)/float64(c.DetailedUop)*1000, "1/kuop")
	put("uncore.ns_per_access", c.Accesses > 0, t.busy[layerUncore]/float64(c.Accesses), "ns")
	put("uncore.ns_per_functional", c.Functional > 0, t.busy[layerUncoreFunc]/float64(c.Functional), "ns")
	put("uncore.share_pct", t.rootNS > 0, 100*(t.busy[layerUncore]+t.busy[layerUncoreFunc])/t.rootNS, "%")
	put("uncore.accesses_per_kuop", kuop > 0, float64(c.Accesses)/kuop, "1/kuop")
	put("uncore.llc_mpki", allKuop > 0, float64(c.LLCMisses)/allKuop, "1/kuop")
	put("uncore.bus_busy_pct", c.Cycles > 0, 100*float64(c.BusBusy)/float64(c.Cycles), "%")
	put("multicore.exec_per_quota", c.QuotaUops > 0, float64(c.ExecUops)/float64(c.QuotaUops), "ratio")
	put("multicore.batches_per_kuop", kuop > 0, float64(c.Batches)/kuop, "1/kuop")
	put("multicore.driver_share_pct", t.rootNS > 0, 100*t.busy[layerMulticore]/t.rootNS, "%")
	slots := float64(simSlots())
	put("multicore.slot_idle_pct", s.wallNS > 0, 100*(1-t.rootNS/(slots*float64(s.wallNS))), "%")
	if s.queueMS != nil {
		put("serve.queue_ms_p50", true, percentile(s.queueMS, 0.5), "ms")
		put("serve.run_ms_p50", true, percentile(s.runMS, 0.5), "ms")
		put("client.overhead_ms_p50", true, percentile(s.clientMS, 0.5), "ms")
		put("serve.sim_ms_p50", true, percentile(s.simMS, 0.5), "ms")
	}
	put("trace.clock_ns", true, clock, "ns")
	put("trace.overhead_pct", s.libNS > 0, 100*float64(s.wallNS-s.libNS)/float64(s.libNS), "%")
	var covered float64
	for _, b := range t.busy {
		covered += b
	}
	put("trace.coverage_pct", t.rootNS > 0, 100*covered/t.rootNS, "%")
	return m
}

// split prints a slice's host-time split by layer.
func (s *slice) split() []string {
	t := s.totals()
	out := []string{fmt.Sprintf("%s: %d co-schedules traced, %.1f ms of root spans, %d failed",
		s.workload, len(s.roots), t.rootNS/1e6, s.failed)}
	var covered float64
	for i, b := range t.busy {
		covered += b
		if t.calls[i] == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("  %-18s %6.1f %% of root time, %d calls", layerNames[i], 100*b/t.rootNS, t.calls[i]))
	}
	out = append(out, fmt.Sprintf("  %-18s %6.1f %%", "(unattributed)", 100*(1-covered/t.rootNS)))
	if s.genUops > 0 {
		out = append(out, fmt.Sprintf("  set-up: trace.Generate %.1f ms for %d µops, badco.Build %.1f ms for %d models",
			s.genNS/1e6, s.genUops, s.buildNS/1e6, s.builds))
	}
	return out
}

// perLayer lists the per-layer metrics in BENCHMARK.json order.
var perLayer = []string{
	"trace.gen_ns_per_uop", "badco.build_ms_per_bench", "badco.ns_per_exec_uop",
	"cpu.ns_per_exec_uop", "cpu.ff_ns_per_uop", "cpu.branch_mpki", "cpu.dl1_mpki",
	"uncore.ns_per_access", "uncore.ns_per_functional", "uncore.share_pct",
	"uncore.accesses_per_kuop", "uncore.llc_mpki", "uncore.bus_busy_pct",
	"multicore.exec_per_quota", "multicore.batches_per_kuop", "multicore.driver_share_pct",
	"multicore.slot_idle_pct", "serve.queue_ms_p50", "serve.run_ms_p50",
	"client.overhead_ms_p50", "serve.sim_ms_p50",
	"trace.clock_ns", "trace.overhead_pct", "trace.coverage_pct",
}

// runTraced traces a slice of every workload; each per-layer metric is
// read from the requested workload when its layers produce it and from
// the first other workload that does otherwise (the line printed for
// each metric names its source).
func runTraced(ctx context.Context, name string, cfg runConfig, spansPath string) (*outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	clock := measureClock()
	out := &outcome{}
	order := []int{}
	for i, t := range tracers {
		if t.name == name {
			order = append([]int{i}, order...)
		} else {
			order = append(order, i)
		}
	}
	var slices []*slice
	for _, i := range order {
		s, err := tracers[i].fn(ctx, cfg.seed, clock)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", tracers[i].name, err)
		}
		slices = append(slices, s)
		out.attempted += len(s.roots)
		out.failed += s.failed
		out.notes = append(out.notes, s.split()...)
	}
	measured := make([]map[string]metric, len(slices))
	for i, s := range slices {
		measured[i] = s.metricsOf(clock)
	}
	for _, mname := range perLayer {
		for i, s := range slices {
			if v, ok := measured[i][mname]; ok {
				out.set(mname, v.Value, v.Unit)
				out.notef("%-28s from %s", mname, s.workload)
				break
			}
		}
		if _, ok := out.metrics[mname]; !ok {
			out.notef("%-28s missing: no traced workload exercises it", mname)
		}
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, name, cfg.seed, clock, slices); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func writeSpans(path, name string, seed int64, clock float64, slices []*slice) error {
	type sliceOut struct {
		Workload string     `json:"workload"`
		WallNS   int64      `json:"wall_ns"`
		LibNS    int64      `json:"library_ns"`
		Roots    []rootSpan `json:"roots"`
	}
	doc := struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		ClockNS  float64    `json:"clock_ns"`
		Slices   []sliceOut `json:"slices"`
	}{Workload: name, Seed: seed, ClockNS: clock}
	for _, s := range slices {
		doc.Slices = append(doc.Slices, sliceOut{s.workload, s.wallNS, s.libNS, s.roots})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
