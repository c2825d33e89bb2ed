package multicore

import (
	"context"
	"testing"

	"mcbench/internal/badco"
	"mcbench/internal/cache"
)

// The per-step reference oracles: the executable specification of the
// schedule that the batched loop (schedule) must reproduce bit for bit.
// Each one picks the core with the smallest local clock and steps it a
// single µop at a time. They ignore the context.

// step advances a core model by one µop.
func step(c stepper) { c.(interface{ Step() uint64 }).Step() }

// runInterleavedReference is the per-step exact run: pick the core with
// the smallest local clock, step it one µop, repeat until every core has
// committed quota µops; it returns each core's quota completion cycle.
func runInterleavedReference(_ context.Context, cores []stepper, quota uint64) ([]uint64, error) {
	n := len(cores)
	quotaCycle := make([]uint64, n)
	reached := make([]bool, n)
	remaining := n
	for remaining > 0 {
		// Pick the unfinished-or-not core with the smallest local clock.
		// Finished threads keep running (restarted) until all reach the
		// quota, as in the paper, so they stay in the pick set.
		min := 0
		for i := 1; i < n; i++ {
			if cores[i].Now() < cores[min].Now() {
				min = i
			}
		}
		c := cores[min]
		step(c)
		if !reached[min] && c.Committed() >= quota {
			reached[min] = true
			quotaCycle[min] = c.Now()
			remaining--
		}
	}
	return quotaCycle, nil
}

// runToBoundaryReference is the per-step warmup: step the smallest-clock
// core that has not yet committed warmup µops.
func runToBoundaryReference(_ context.Context, cores []stepper, warmup uint64) error {
	for {
		m := -1
		for i, c := range cores {
			if c.Committed() >= warmup {
				continue
			}
			if m < 0 || c.Now() < cores[m].Now() {
				m = i
			}
		}
		if m < 0 {
			return nil
		}
		step(cores[m])
	}
}

// runInterleavedFromReference is the per-step continuation of a
// two-stage run: pick the smallest-clock core, step it one µop, record
// per-core target crossings into reached/quotaCycle.
func runInterleavedFromReference(_ context.Context, cores []stepper, targets []uint64, reached []bool, quotaCycle []uint64) error {
	remaining := 0
	for _, r := range reached {
		if !r {
			remaining++
		}
	}
	for remaining > 0 {
		min := 0
		for i := 1; i < len(cores); i++ {
			if cores[i].Now() < cores[min].Now() {
				min = i
			}
		}
		c := cores[min]
		step(c)
		if !reached[min] && c.Committed() >= targets[min] {
			reached[min] = true
			quotaCycle[min] = c.Now()
			remaining--
		}
	}
	return nil
}

// detailed and approximate are the exact single-run specs the tests use
// most.
func detailed(ctx context.Context, w Workload, trs TraceSource, policy cache.PolicyName, quota uint64) (Result, error) {
	return Run(ctx, w, Spec{Engine: Detailed, Policy: policy, Quota: quota}, trs, nil)
}

func approximate(ctx context.Context, w Workload, mods map[string]*badco.Model, policy cache.PolicyName, quota uint64) (Result, error) {
	return Run(ctx, w, Spec{Engine: BADCO, Policy: policy, Quota: quota}, nil, mods)
}

// mustBuild builds the spec's machine and resolves its quota.
func mustBuild(t *testing.T, w Workload, spec Spec, trs TraceSource, mods map[string]*badco.Model) (*machine, Spec) {
	t.Helper()
	m, err := build(context.Background(), w, spec.Engine, spec.Policy, trs, mods)
	if err != nil {
		t.Fatal(err)
	}
	return m, spec.Resolved(m.traceLen)
}

// referenceRun builds the spec's machine and runs the exact per-step
// oracle on it.
func referenceRun(t *testing.T, w Workload, spec Spec, trs TraceSource, mods map[string]*badco.Model) Result {
	t.Helper()
	m, spec := mustBuild(t, w, spec, trs, mods)
	cycles, err := runInterleavedReference(context.Background(), m.cores, spec.Quota)
	if err != nil {
		t.Fatal(err)
	}
	return assemble(w, spec.Policy, cycles, spec.Quota)
}
