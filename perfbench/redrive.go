package main

// The traced re-drive. A traced run drives a seeded slice of a
// workload's co-schedules through the benchmark's own copy of the
// smallest-clock-first loop, over the public constructors and StepUntil
// of cpu.Core and badco.Machine and an uncore.Memory wrapper, and times
// each layer from the outside:
//
//   - one root span per co-schedule (two clock reads);
//   - per (root, layer) one child span holding the layer's call count
//     and estimated busy time, never one span per call;
//   - every core batch (StepUntil call) and every cpu.FastForward call
//     is timed: their lengths vary by orders of magnitude, which a
//     sample would turn into noise; the driver's pick between batches
//     and uncore calls, short and alike, are timed one call in N at
//     random strides of mean N and scaled by calls/timed;
//   - every timed interval is charged one clock read less (the reads
//     that bound it), and an outer interval the clock time of the inner
//     timed calls it contains; an uncore call, about as cheap as a
//     clock read, calibrates its read in place (see tracedMem).
//
// What remains biased: clock reads serialise the pipeline, so a timed
// uncore call is charged its whole latency, part of which the untimed
// program overlaps with the caller's work, and a BADCO machine reaches
// the wrapper through an interface call the library devirtualizes;
// uncore time reads high and core time low. The wrapper's call counting
// runs in the caller and reads as core time, and loop bookkeeping
// outside the timed segments is not attributed, which is what
// trace.coverage_pct shows. Every re-driven co-schedule must reproduce
// the library's quota cycles bit for bit, so the traced loop is the
// program's schedule, not a lookalike.

import (
	"context"
	"time"

	"mcbench/internal/badco"
	"mcbench/internal/cache"
	"mcbench/internal/cpu"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// Layers of the traced split, indexed into a root's children.
const (
	layerMulticore  = iota // driver loop and machine assembly
	layerCPU               // cpu.Core.StepUntil, self
	layerCPUFF             // cpu.Core.FastForward, self
	layerBadco             // badco.Machine.StepUntil, self
	layerUncore            // uncore.Access
	layerUncoreFunc        // uncore.AccessFunctional
	nLayers
)

var layerNames = [nLayers]string{"multicore", "cpu", "cpu.ff", "badco", "uncore", "uncore.functional"}

// Mean sampling strides (one call timed in N).
const (
	pickStride   = 16
	accessStride = 64
	funcStride   = 64
)

var epoch = time.Now()

// nanotime reads the monotonic clock only (time.Now also reads the
// wall clock).
func nanotime() int64 { return int64(time.Since(epoch)) }

// measureClock returns the cost of one nanotime call in ns, the median
// of several back-to-back loops.
func measureClock() float64 {
	const n = 200000
	ts := make([]float64, 7)
	var sink int64
	for r := range ts {
		t0 := nanotime()
		for i := 0; i < n; i++ {
			sink += nanotime()
		}
		ts[r] = float64(nanotime()-t0) / n
	}
	_ = sink
	return median(ts)
}

// sampler picks which calls of one kind are timed and sums their
// durations.
type sampler struct {
	mean, left            int
	rng                   uint64
	calls, timed, dropped uint64
	sumNS                 float64
}

func newSampler(mean int, seed uint64) sampler {
	s := sampler{mean: mean, rng: seed | 1}
	s.left = s.stride()
	return s
}

func (s *sampler) stride() int {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return 1 + int(s.rng%uint64(2*s.mean-1))
}

// tick counts a call and reports whether to time it.
func (s *sampler) tick() bool {
	s.calls++
	s.left--
	if s.left > 0 {
		return false
	}
	s.left = s.stride()
	s.timed++
	return true
}

// maxCallNS bounds one timed uncore call. A longer one was interrupted —
// by a collection, a preemption or a page fault — and would be scaled by
// the stride into milliseconds of phantom busy time, so it is dropped
// from the sample (the call still counts).
const maxCallNS = 20000

// add records one timed call's duration.
func (s *sampler) add(ns int64) {
	if ns > maxCallNS {
		s.timed--
		s.dropped++
		return
	}
	s.sumNS += float64(ns)
}

// estimate scales the timed calls' busy time to all calls.
func (s *sampler) estimate() float64 {
	if s.timed == 0 {
		return 0
	}
	return s.sumNS * float64(s.calls) / float64(s.timed)
}

// tracedMem is the uncore.Memory the traced cores talk to. It forwards
// AccessFunctional too: without it cpu.FastForward falls back to timed
// accesses, which would be a different program.
//
// An uncore call costs about as much as a clock read, so a timed call
// calibrates the read in place: of three back-to-back reads t0, t1
// (call) t2, the call is charged (t2-t1) - (t1-t0).
type tracedMem struct {
	u        *uncore.Uncore
	acc, fun sampler
	// timerNS is the clock time the timed calls spent reading the clock,
	// so an enclosing interval can discount it.
	timerNS float64
}

func (m *tracedMem) Access(core int, pc, vaddr uint64, write, prefetch bool, now uint64) uint64 {
	if !m.acc.tick() {
		return m.u.Access(core, pc, vaddr, write, prefetch, now)
	}
	t0 := nanotime()
	t1 := nanotime()
	r := m.u.Access(core, pc, vaddr, write, prefetch, now)
	t2 := nanotime()
	m.acc.add(t2 - 2*t1 + t0)
	m.timerNS += 3 * float64(t1-t0)
	return r
}

func (m *tracedMem) AccessFunctional(core int, pc, vaddr uint64, write, prefetch bool) {
	if !m.fun.tick() {
		m.u.AccessFunctional(core, pc, vaddr, write, prefetch)
		return
	}
	t0 := nanotime()
	t1 := nanotime()
	m.u.AccessFunctional(core, pc, vaddr, write, prefetch)
	t2 := nanotime()
	m.fun.add(t2 - 2*t1 + t0)
	m.timerNS += 3 * float64(t1-t0)
}

// stepper is what the traced loop needs of a core model.
type stepper interface {
	StepUntil(limit, quota uint64) uint64
	Now() uint64
	Committed() uint64
}

// child is one (root, layer) span.
type child struct {
	Layer string `json:"layer"`
	Calls uint64 `json:"calls"`
	Timed uint64 `json:"timed"`
	// Dropped counts timed calls discarded as interrupted (maxCallNS).
	Dropped uint64  `json:"dropped,omitempty"`
	BusyNS  float64 `json:"busy_ns"`
}

// rootSpan is one co-schedule (or job) of a traced slice.
type rootSpan struct {
	ID       string   `json:"id"`
	Workload []string `json:"workload"`
	Engine   string   `json:"engine"`
	Slot     int      `json:"slot"`
	StartNS  int64    `json:"start_ns"`
	EndNS    int64    `json:"end_ns"`
	Children []child  `json:"children"`
	Counts   counts   `json:"counts"`
}

// counts are simulated quantities; they repeat exactly.
type counts struct {
	QuotaUops   uint64 `json:"quota_uops"`
	ExecUops    uint64 `json:"exec_uops"` // µops executed in timed mode
	FFUops      uint64 `json:"ff_uops"`
	Batches     uint64 `json:"batches"`
	Accesses    uint64 `json:"accesses"`
	Functional  uint64 `json:"functional"`
	LLCMisses   uint64 `json:"llc_misses"`
	BusBusy     uint64 `json:"bus_busy_cycles"`
	Cycles      uint64 `json:"cycles"` // latest core clock
	BranchMiss  uint64 `json:"branch_misses"`
	DL1Miss     uint64 `json:"dl1_misses"`
	DetailedUop uint64 `json:"detailed_committed"` // committed by detailed cores
}

func (c *counts) add(o counts) {
	c.QuotaUops += o.QuotaUops
	c.ExecUops += o.ExecUops
	c.FFUops += o.FFUops
	c.Batches += o.Batches
	c.Accesses += o.Accesses
	c.Functional += o.Functional
	c.LLCMisses += o.LLCMisses
	c.BusBusy += o.BusBusy
	c.Cycles += o.Cycles
	c.BranchMiss += o.BranchMiss
	c.DL1Miss += o.DL1Miss
	c.DetailedUop += o.DetailedUop
}

// machine is one co-schedule being re-driven, with its timers.
type machine struct {
	mem      *tracedMem
	cores    []stepper
	detailed []*cpu.Core // nil for BADCO
	clock    float64
	drv      sampler // driver iterations, their pick timed one in N
	drvNS    float64 // driver self time of timed iterations
	batchNS  float64 // core batch time, every batch timed
	buildNS  float64
	ffNS     float64 // FastForward calls, all timed
	ffCalls  uint64
	ffUops   uint64
	execUops uint64
	batches  uint64
}

// spec is one co-schedule to re-drive.
type spec struct {
	names  []string
	engine string // "badco", "detailed" or "sampled"
	quota  uint64
}

func newMachine(sp spec, traces map[string]*trace.Trace, models map[string]*badco.Model, clock float64, seed uint64) (*machine, error) {
	t0 := nanotime()
	unc, err := uncore.New(uncore.ConfigFor(len(sp.names), cache.LRU))
	if err != nil {
		return nil, err
	}
	m := &machine{
		mem:   &tracedMem{u: unc, acc: newSampler(accessStride, seed), fun: newSampler(funcStride, seed+1)},
		clock: clock,
		drv:   newSampler(pickStride, seed+2),
	}
	for i, name := range sp.names {
		if sp.engine == "badco" {
			ma, err := badco.NewMachine(i, models[name], m.mem)
			if err != nil {
				return nil, err
			}
			m.cores = append(m.cores, ma)
			continue
		}
		c, err := cpu.New(i, cpu.DefaultConfig(), traces[name], m.mem)
		if err != nil {
			return nil, err
		}
		m.cores = append(m.cores, c)
		m.detailed = append(m.detailed, c)
	}
	m.buildNS = float64(nanotime()-t0) - clock
	return m, nil
}

// drive is the library's smallest-local-clock-first loop in its
// general form. Each core runs until it has committed target µops,
// recording its clock at the crossing in cross; a core that has crossed
// keeps running (restarted, as in the paper) until it reaches cap, then
// leaves the pick set. The loop ends once every core has crossed.
// cap = never is the exact run's driver, cap = target the warmup
// driver that halts each core at the boundary, and target < cap the
// sampled run's measured window.
func (m *machine) drive(ctx context.Context, target, cap uint64, cross []uint64) error {
	cores := m.cores
	n := len(cores)
	halted := make([]bool, n)
	reached := make([]bool, n)
	clocks := make([]uint64, n)
	remaining := 0
	for i, c := range cores {
		clocks[i] = c.Now()
		cross[i] = clocks[i]
		if c.Committed() >= target {
			reached[i] = true
		} else {
			remaining++
		}
		halted[i] = c.Committed() >= cap
	}
	const soloChunk = 1 << 18
	for batch := 0; remaining > 0; batch++ {
		if batch&1023 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		timed := m.drv.tick()
		var t0 int64
		if timed {
			t0 = nanotime()
		}
		m0, o := -1, -1
		for i := 0; i < n; i++ {
			if halted[i] {
				continue
			}
			switch {
			case m0 < 0 || clocks[i] < clocks[m0]:
				m0, o = i, m0
			case o < 0 || clocks[i] < clocks[o]:
				o = i
			}
		}
		if m0 < 0 {
			break
		}
		limit := clocks[m0] + soloChunk
		if o >= 0 {
			limit = clocks[o]
			if m0 < o {
				limit++
			}
		}
		c := cores[m0]
		quota := target
		if reached[m0] {
			quota = cap
		}
		timers := m.mem.timerNS
		t1 := nanotime()
		if timed {
			m.drvNS += float64(t1-t0) - m.clock
		}
		steps := c.StepUntil(limit, quota)
		m.batchNS += float64(nanotime()-t1) - m.clock - (m.mem.timerNS - timers)
		m.batches++
		if m.detailed != nil {
			m.execUops += steps
		}
		clocks[m0] = c.Now()
		if !reached[m0] && c.Committed() >= target {
			reached[m0] = true
			cross[m0] = clocks[m0]
			remaining--
		}
		if reached[m0] && c.Committed() >= cap {
			halted[m0] = true
		}
	}
	return nil
}

const never = ^uint64(0)

// runExact re-drives an exact (BADCO or detailed) co-schedule and
// returns its quota cycles.
func (m *machine) runExact(ctx context.Context, quota uint64) ([]uint64, error) {
	cross := make([]uint64, len(m.cores))
	if err := m.drive(ctx, quota, never, cross); err != nil {
		return nil, err
	}
	if m.detailed == nil {
		for _, c := range m.cores {
			m.execUops += c.Committed()
		}
	}
	return cross, nil
}

// ffChunk is the library's fast-forward interleaving chunk.
const ffChunk = 256

// fastForward is the library's speed-weighted functional interleaving,
// with every FastForward call timed.
func (m *machine) fastForward(weights []float64, tgt uint64) {
	wmax := 0.0
	for _, w := range weights {
		if w > wmax {
			wmax = w
		}
	}
	for {
		active := false
		for i, c := range m.detailed {
			cm := c.Committed()
			if cm >= tgt {
				continue
			}
			n := uint64(ffChunk)
			if w := weights[i]; w > 0 && wmax > 0 {
				n = uint64(ffChunk*w/wmax + 0.5)
				if n == 0 {
					n = 1
				}
			}
			if n > tgt-cm {
				n = tgt - cm
			}
			timers := m.mem.timerNS
			t0 := nanotime()
			c.FastForward(n)
			m.ffNS += float64(nanotime()-t0) - m.clock - (m.mem.timerNS - timers)
			m.ffCalls++
			m.ffUops += n
			if c.Committed() < tgt {
				active = true
			}
		}
		if !active {
			return
		}
	}
}

func (m *machine) syncClocks() {
	var t uint64
	for _, c := range m.cores {
		t = max(t, c.Now())
	}
	for _, c := range m.detailed {
		c.SyncClock(t)
	}
}

// runSampled re-drives the library's sampled run (multicore's
// DetailedSampled with an unbounded warming stretch) and returns each
// core's measured cycles.
func (m *machine) runSampled(ctx context.Context, quota uint64) ([]uint64, error) {
	unit, window, warmup := samplingSpec[0], samplingSpec[1], samplingSpec[2]
	n := len(m.cores)
	windows := quota / unit
	gap := unit - warmup - window
	total := make([]uint64, n)
	clocks := make([]uint64, n)
	cross := make([]uint64, n)
	weights := make([]float64, n)
	if prologue := min(warmup+window, gap); prologue > 0 {
		if err := m.drive(ctx, prologue, prologue, cross); err != nil {
			return nil, err
		}
		for i, c := range m.cores {
			if now := c.Now(); now > 0 {
				weights[i] = float64(prologue) / float64(now)
			}
		}
	}
	for k := uint64(0); k < windows; k++ {
		base := k * unit
		m.fastForward(weights, base+gap)
		m.syncClocks()
		if warmup > 0 {
			if err := m.drive(ctx, base+gap+warmup, base+gap+warmup, cross); err != nil {
				return nil, err
			}
			m.syncClocks()
		}
		for i, c := range m.cores {
			clocks[i] = c.Now()
		}
		if err := m.drive(ctx, base+unit, base+unit+gap, cross); err != nil {
			return nil, err
		}
		for i := range m.cores {
			cyc := cross[i] - clocks[i]
			total[i] += cyc
			if cyc > 0 {
				weights[i] = float64(window) / float64(cyc)
			}
		}
	}
	return total, nil
}

// span closes the machine's accounting into a root span.
func (m *machine) span(sp spec, start, end int64) rootSpan {
	r := rootSpan{Workload: sp.names, Engine: sp.engine, StartNS: start, EndNS: end}
	unc := m.mem.acc.estimate()
	fun := m.mem.fun.estimate()
	drv := 0.0
	if m.drv.timed > 0 {
		drv = m.drvNS * float64(m.drv.calls) / float64(m.drv.timed)
	}
	core := layerBadco
	if sp.engine != "badco" {
		core = layerCPU
	}
	ch := make([]child, nLayers)
	for i := range ch {
		ch[i].Layer = layerNames[i]
	}
	ch[layerMulticore] = child{Layer: layerNames[layerMulticore], Calls: m.drv.calls, Timed: m.drv.timed, BusyNS: drv + m.buildNS}
	ch[core] = child{Layer: layerNames[core], Calls: m.batches, Timed: m.batches, BusyNS: m.batchNS - unc}
	ch[layerUncore] = child{Layer: layerNames[layerUncore], Calls: m.mem.acc.calls, Timed: m.mem.acc.timed, Dropped: m.mem.acc.dropped, BusyNS: unc}
	ch[layerUncoreFunc] = child{Layer: layerNames[layerUncoreFunc], Calls: m.mem.fun.calls, Timed: m.mem.fun.timed, Dropped: m.mem.fun.dropped, BusyNS: fun}
	if m.ffCalls > 0 {
		ch[layerCPUFF] = child{Layer: layerNames[layerCPUFF], Calls: m.ffCalls, Timed: m.ffCalls, BusyNS: m.ffNS - fun}
	}
	r.Children = ch

	st := m.mem.u.Stats()
	c := counts{
		QuotaUops: sp.quota * uint64(len(sp.names)), ExecUops: m.execUops, FFUops: m.ffUops,
		Batches: m.batches, Accesses: m.mem.acc.calls, Functional: m.mem.fun.calls,
		LLCMisses: st.DemandMisses, BusBusy: st.BusBusyCycles,
	}
	for _, co := range m.cores {
		c.Cycles = max(c.Cycles, co.Now())
	}
	for _, co := range m.detailed {
		s := co.Stats()
		c.BranchMiss += s.BranchMisses
		c.DL1Miss += s.DL1.Misses
		c.DetailedUop += s.Committed
	}
	r.Counts = c
	return r
}
