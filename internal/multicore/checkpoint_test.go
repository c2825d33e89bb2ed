package multicore

import (
	"context"
	"testing"

	"mcbench/internal/cache"
)

// The checkpoint golden tests prove the snapshot layer's central claim:
// a warmup snapshot restored — into fresh machines or over dirty ones —
// measures bit-identically to the uninterrupted two-stage run, and a
// shared-warmup fan-out reproduces exactly the sequential
// warm-then-swap reference.

// TestGoldenCheckpointRestoreModes restores one warmup snapshot two ways
// — into fresh machines continued by the per-step reference oracle, and
// over machines dirtied by unrelated progress continued by the batched
// loop — and demands the bits of the uninterrupted warmed run from both.
func TestGoldenCheckpointRestoreModes(t *testing.T) {
	trs := traces(t)
	ctx := context.Background()
	w := Workload{"mcf", "povray"}
	const warmup, quota = 3000, 8000
	spec := Spec{Engine: Detailed, Policy: cache.LRU, Quota: quota, Warmup: warmup}
	uninterrupted, err := Run(ctx, w, spec, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp := warmCheckpoint(t, w, spec, trs, nil)

	// Fresh machines, per-step reference continuation.
	ref, err := restore(ctx, cp, cp.policy, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ref.cores)
	targets := make([]uint64, n)
	start := make([]uint64, n)
	for i, c := range ref.cores {
		targets[i] = c.Committed() + quota
		start[i] = c.Now()
	}
	cross := make([]uint64, n)
	if err := runInterleavedFromReference(ctx, ref.cores, targets, make([]bool, n), cross); err != nil {
		t.Fatal(err)
	}
	for i := range cross {
		cross[i] -= start[i]
	}
	assertBitIdentical(t, "reference-stepper restore", assemble(w, cp.policy, cross, quota), uninterrupted)

	// Dirty machines: advance an identically built machine set to an
	// unrelated point, then restore the snapshot over it.
	m, _ := mustBuild(t, w, spec, trs, nil)
	if err := m.warm(ctx, 1234); err != nil {
		t.Fatal(err)
	}
	for i, c := range m.cpus {
		c.Restore(&cp.cpu[i])
	}
	m.unc.Restore(&cp.uncore)
	dirty, err := m.measure(ctx, w, cp.policy, quota)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "dirty restore", dirty, uninterrupted)
}

// TestGoldenWarmupSnapshotRestore pins warmup + restore + measure to the
// uninterrupted two-stage run, for both engines and across policies with
// RNG-bearing replacement state.
func TestGoldenWarmupSnapshotRestore(t *testing.T) {
	trs := traces(t)
	ctx := context.Background()
	w := Workload{"soplex", "hmmer"}
	const warmup, quota = 3000, 5000
	for _, pol := range []cache.PolicyName{cache.LRU, cache.DRRIP, cache.Random, cache.DIP} {
		spec := Spec{Engine: Detailed, Policy: pol, Quota: quota, Warmup: warmup}
		direct, err := Run(ctx, w, spec, trs, nil)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := measureFrom(ctx, warmCheckpoint(t, w, spec, trs, nil), spec, trs, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "detailed warmup "+string(pol), restored, direct)
	}

	mods := models(t)
	spec := Spec{Engine: BADCO, Policy: cache.DRRIP, Quota: quota, Warmup: warmup}
	direct, err := Run(ctx, w, spec, nil, mods)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := measureFrom(ctx, warmCheckpoint(t, w, spec, nil, mods), spec, nil, mods)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "badco warmup", restored, direct)
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

// TestGoldenSharedWarmupPolicySweep pins the snapshot-sharing sweep to a
// sequential reference that warms live machines under the base policy
// and swaps the LLC policy in place — no snapshot, no restore — per
// policy. It also checks the zero-warmup path degenerates to Detailed
// exactly.
func TestGoldenSharedWarmupPolicySweep(t *testing.T) {
	trs := traces(t)
	ctx := context.Background()
	w := Workload{"mcf", "soplex"}
	const warmup, quota = 3000, 4000
	policies := cache.PaperPolicies()

	swept, err := SweepPoliciesDetailed(ctx, w, Spec{Quota: quota, Warmup: warmup}, policies, trs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pol := range policies {
		m, _ := mustBuild(t, w, Spec{Policy: policies[0], Quota: quota}, trs, nil)
		if err := m.warm(ctx, warmup); err != nil {
			t.Fatal(err)
		}
		if pol != policies[0] {
			if err := m.unc.SetPolicy(pol, m.unc.Config().PolicySeed); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := m.measure(ctx, w, pol, quota)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "shared sweep "+string(pol), swept[i], ref)
	}

	swept0, err := SweepPoliciesDetailed(ctx, w, Spec{Quota: quota}, policies[:2], trs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pol := range policies[:2] {
		plain, err := detailed(ctx, w, trs, pol, quota)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "zero-warmup sweep "+string(pol), swept0[i], plain)
	}
}
