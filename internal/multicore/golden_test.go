package multicore

import (
	"context"
	"math"
	"testing"

	"mcbench/internal/cache"
)

// The golden determinism tests prove the batched driver's central claim:
// dispatching the minimum-clock core in batches (StepUntil up to the
// runner-up's clock) produces the exact schedule of the per-step
// reference oracle, so every simulation result is bit-identical.

// assertBitIdentical fails unless the two results match bit for bit.
func assertBitIdentical(t *testing.T, name string, batched, reference Result) {
	t.Helper()
	if len(batched.IPC) != len(reference.IPC) || len(batched.Cycles) != len(reference.Cycles) {
		t.Fatalf("%s: shape mismatch: %d/%d IPCs, %d/%d cycles", name,
			len(batched.IPC), len(reference.IPC), len(batched.Cycles), len(reference.Cycles))
	}
	if batched.Instructions != reference.Instructions {
		t.Errorf("%s: quota %d, reference %d", name, batched.Instructions, reference.Instructions)
	}
	for i := range batched.IPC {
		if batched.Cycles[i] != reference.Cycles[i] {
			t.Errorf("%s: core %d quota cycle %d, reference %d", name, i, batched.Cycles[i], reference.Cycles[i])
		}
		if math.Float64bits(batched.IPC[i]) != math.Float64bits(reference.IPC[i]) {
			t.Errorf("%s: core %d IPC %v (bits %x), reference %v (bits %x)", name, i,
				batched.IPC[i], math.Float64bits(batched.IPC[i]),
				reference.IPC[i], math.Float64bits(reference.IPC[i]))
		}
	}
}

func TestGoldenDetailedMatchesReference(t *testing.T) {
	trs := traces(t)
	for _, w := range []Workload{
		{"mcf", "povray"},
		{"mcf", "soplex", "gcc", "libquantum"},
	} {
		batched, err := detailed(context.Background(), w, trs, cache.LRU, 0)
		if err != nil {
			t.Fatal(err)
		}
		reference := referenceRun(t, w, Spec{Engine: Detailed, Policy: cache.LRU}, trs, nil)
		assertBitIdentical(t, "detailed "+w.String(), batched, reference)
	}
}

func TestGoldenApproximateMatchesReference(t *testing.T) {
	mods := models(t)
	for _, w := range []Workload{
		{"mcf", "povray"},
		{"mcf", "soplex", "gcc", "libquantum"},
	} {
		batched, err := approximate(context.Background(), w, mods, cache.LRU, 0)
		if err != nil {
			t.Fatal(err)
		}
		reference := referenceRun(t, w, Spec{Engine: BADCO, Policy: cache.LRU}, nil, mods)
		assertBitIdentical(t, "approximate "+w.String(), batched, reference)
	}
}

// TestGoldenAcrossPolicies widens the equivalence check to a policy with
// random replacement (seeded) and a non-trivial quota, exercising the
// quota-capped batch path.
func TestGoldenAcrossPolicies(t *testing.T) {
	trs := traces(t)
	for _, pol := range []cache.PolicyName{cache.DRRIP, cache.Random} {
		w := Workload{"soplex", "hmmer"}
		batched, err := detailed(context.Background(), w, trs, pol, 7500)
		if err != nil {
			t.Fatal(err)
		}
		reference := referenceRun(t, w, Spec{Engine: Detailed, Policy: pol, Quota: 7500}, trs, nil)
		assertBitIdentical(t, "detailed "+string(pol), batched, reference)
	}
}

// TestGoldenSingleCore pins the solo path of the batched loop to the
// reference schedule.
func TestGoldenSingleCore(t *testing.T) {
	trs := traces(t)
	batched, err := detailed(context.Background(), Workload{"hmmer"}, trs, cache.LRU, 5000)
	if err != nil {
		t.Fatal(err)
	}
	reference := referenceRun(t, Workload{"hmmer"}, Spec{Engine: Detailed, Policy: cache.LRU, Quota: 5000}, trs, nil)
	assertBitIdentical(t, "detailed single-core", batched, reference)
}

// TestGoldenWarmupMatchesReferenceSchedule pins the batched two-stage
// run to a fully per-step one: per-step warmup boundary, per-step
// measurement.
func TestGoldenWarmupMatchesReferenceSchedule(t *testing.T) {
	trs := traces(t)
	ctx := context.Background()
	w := Workload{"mcf", "gcc"}
	const warmup, quota = 2500, 4000

	spec := Spec{Engine: Detailed, Policy: cache.LRU, Quota: quota, Warmup: warmup}
	batched, err := Run(ctx, w, spec, trs, nil)
	if err != nil {
		t.Fatal(err)
	}

	m, _ := mustBuild(t, w, spec, trs, nil)
	if err := runToBoundaryReference(ctx, m.cores, warmup); err != nil {
		t.Fatal(err)
	}
	n := len(m.cores)
	targets := make([]uint64, n)
	start := make([]uint64, n)
	for i, c := range m.cores {
		targets[i] = c.Committed() + quota
		start[i] = c.Now()
	}
	reached := make([]bool, n)
	quotaCycle := make([]uint64, n)
	if err := runInterleavedFromReference(ctx, m.cores, targets, reached, quotaCycle); err != nil {
		t.Fatal(err)
	}
	cycles := make([]uint64, n)
	for i := range cycles {
		cycles[i] = quotaCycle[i] - start[i]
	}
	assertBitIdentical(t, "two-stage reference", batched, assemble(w, cache.LRU, cycles, quota))
}
