package multicore

import (
	"context"
	"math/rand"
	"testing"

	"mcbench/internal/cache"
)

// The checkpoint golden tests prove the snapshot layer's central claim:
// a run interrupted at any schedule boundary and restored — into fresh
// machines or over dirty ones — finishes bit-identically to the
// uninterrupted run, and a shared-warmup fan-out reproduces exactly the
// sequential warm-then-swap reference.

// TestGoldenCheckpointResumeDetailed interrupts runs at randomized clock
// boundaries and resumes each checkpoint into fresh machines.
func TestGoldenCheckpointResumeDetailed(t *testing.T) {
	trs := traces(t)
	ctx := context.Background()
	w := Workload{"mcf", "soplex"}
	const quota = 8000
	uninterrupted, err := detailed(ctx, w, trs, cache.DRRIP, quota)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 3; trial++ {
		every := uint64(400 + rng.Intn(2000))
		var cps []*Checkpoint
		run, err := Checkpointed(ctx, w, Spec{Policy: cache.DRRIP, Quota: quota}, trs, nil, every, func(cp *Checkpoint) error {
			cps = append(cps, cp)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "checkpointed run", run, uninterrupted)
		if len(cps) == 0 {
			t.Fatalf("no checkpoints captured at interval %d", every)
		}
		cp := cps[rng.Intn(len(cps))]
		resumed, err := Resume(ctx, cp, trs, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "resumed", resumed, uninterrupted)
	}
}

// TestGoldenCheckpointResumeSingleCore pins the solo fast path of the
// scheduling loop, including periodic capture.
func TestGoldenCheckpointResumeSingleCore(t *testing.T) {
	trs := traces(t)
	ctx := context.Background()
	w := Workload{"hmmer"}
	const quota = 6000
	uninterrupted, err := detailed(ctx, w, trs, cache.LRU, quota)
	if err != nil {
		t.Fatal(err)
	}
	var cps []*Checkpoint
	run, err := Checkpointed(ctx, w, Spec{Policy: cache.LRU, Quota: quota}, trs, nil, 700, func(cp *Checkpoint) error {
		cps = append(cps, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "solo checkpointed run", run, uninterrupted)
	if len(cps) == 0 {
		t.Fatal("no checkpoints captured")
	}
	for _, cp := range []*Checkpoint{cps[0], cps[len(cps)-1]} {
		resumed, err := Resume(ctx, cp, trs, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "solo resumed", resumed, uninterrupted)
	}
}

// TestGoldenCheckpointRestoreModes restores one checkpoint three ways —
// into fresh machines continued by the batched loop, into fresh
// machines continued by the per-step reference oracle, and
// over machines dirtied by unrelated progress — and demands the same
// bits from all of them.
func TestGoldenCheckpointRestoreModes(t *testing.T) {
	trs := traces(t)
	ctx := context.Background()
	w := Workload{"mcf", "povray"}
	const quota = 8000
	uninterrupted, err := detailed(ctx, w, trs, cache.LRU, quota)
	if err != nil {
		t.Fatal(err)
	}
	var cps []*Checkpoint
	if _, err := Checkpointed(ctx, w, Spec{Policy: cache.LRU, Quota: quota}, trs, nil, 1500, func(cp *Checkpoint) error {
		cps = append(cps, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(cps) < 2 {
		t.Fatalf("want at least 2 checkpoints, got %d", len(cps))
	}
	cp := cps[len(cps)/2]

	// Fresh machines, batched continuation (the Resume path).
	fresh, err := Resume(ctx, cp, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "fresh restore", fresh, uninterrupted)

	// Fresh machines, per-step reference continuation.
	continueFrom := func(cores []stepper) Result {
		t.Helper()
		targets := make([]uint64, len(cores))
		for i := range targets {
			targets[i] = cp.Quota
		}
		reached := append([]bool(nil), cp.Reached...)
		quotaCycle := append([]uint64(nil), cp.QuotaCycle...)
		if err := runInterleavedFromReference(ctx, cores, targets, reached, quotaCycle); err != nil {
			t.Fatal(err)
		}
		return assemble(cp.Workload, cp.Policy, quotaCycle, cp.Quota)
	}
	ref, err := restore(ctx, cp, cp.Policy, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "reference-stepper restore", continueFrom(ref.cores), uninterrupted)

	// Dirty machines: advance an identically built machine set to an
	// unrelated point, then restore the checkpoint over it.
	m, _ := mustBuild(t, w, Spec{Policy: cache.LRU, Quota: quota}, trs, nil)
	if err := m.warm(ctx, 1234); err != nil {
		t.Fatal(err)
	}
	for i, c := range m.cpus {
		c.Restore(&cp.CPU[i])
	}
	m.unc.Restore(&cp.Uncore)
	targets := make([]uint64, len(m.cores))
	for i := range targets {
		targets[i] = cp.Quota
	}
	reached := append([]bool(nil), cp.Reached...)
	quotaCycle := append([]uint64(nil), cp.QuotaCycle...)
	if err := schedule(ctx, m.cores, targets, never, reached, quotaCycle, nil); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "dirty restore", assemble(cp.Workload, cp.Policy, quotaCycle, cp.Quota), uninterrupted)
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
		ref, err := m.measure(ctx, w, pol, quota, nil)
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
