// Checkpointed simulation. A Checkpoint captures a whole machine —
// every core (or BADCO machine), the shared uncore, and the scheduling
// loop's progress — at a boundary of the per-step schedule, so a later
// run can restore it into freshly built machines and continue
// bit-identically.
//
// Two workflows build on it:
//
//   - Shared warmup: run the expensive cache-warming prefix of a workload
//     once, then measure k policy variants from the same snapshot
//     (SweepPoliciesDetailed). A k-policy sweep pays for the warmup once
//     instead of k times, which is where the sublinear sweep cost comes
//     from.
//
//   - Crash resume: Checkpointed emits periodic snapshots while it runs;
//     Resume continues a snapshot to the original quota and returns the
//     same Result the uninterrupted run would have — bit-identical,
//     because the smallest-clock-first schedule is memoryless given the
//     clocks, committed counts and machine state.
package multicore

import (
	"context"
	"fmt"

	"mcbench/internal/badco"
	"mcbench/internal/cache"
	"mcbench/internal/cpu"
	"mcbench/internal/uncore"
)

// Checkpoint is a restorable snapshot of a multicore simulation. Exactly
// one of CPU or BADCO is populated, distinguishing the engine. All
// fields are exported so checkpoints survive encoding/gob persistence
// (see results.SaveCheckpoint).
type Checkpoint struct {
	Workload Workload
	Policy   cache.PolicyName

	// Quota is the per-thread instruction target of the interrupted run,
	// for Resume. A warmup checkpoint (a finished prefix, not an
	// interrupted run) has Quota 0.
	Quota uint64

	// Committed and Clocks index per core: µops committed and the local
	// clock at capture time.
	Committed []uint64
	Clocks    []uint64

	// Reached and QuotaCycle carry the scheduling loop's progress for
	// Resume: which cores crossed Quota already, and at which cycle.
	// Warmup checkpoints leave them nil.
	Reached    []bool
	QuotaCycle []uint64

	CPU    []cpu.State   // detailed engine, one per core
	BADCO  []badco.State // approximate engine, one per machine
	Uncore uncore.State
}

// engine reports which engine the checkpoint holds state for.
func (cp *Checkpoint) engine() Engine {
	if len(cp.CPU) > 0 {
		return Detailed
	}
	return BADCO
}

// capture fills cp with the machine's state and the loop progress
// (reached and cross may be nil, for a warmup checkpoint).
func (m *machine) capture(cp *Checkpoint, reached []bool, cross []uint64) {
	for _, c := range m.cores {
		cp.Committed = append(cp.Committed, c.Committed())
		cp.Clocks = append(cp.Clocks, c.Now())
	}
	if reached != nil {
		cp.Reached = append([]bool(nil), reached...)
		cp.QuotaCycle = append([]uint64(nil), cross...)
	}
	if m.cpus != nil {
		cp.CPU = make([]cpu.State, len(m.cpus))
		for i, c := range m.cpus {
			c.Snapshot(&cp.CPU[i])
		}
	} else {
		cp.BADCO = make([]badco.State, len(m.badcos))
		for i, ma := range m.badcos {
			ma.Snapshot(&cp.BADCO[i])
		}
	}
	m.unc.Snapshot(&cp.Uncore)
}

// restore rebuilds a machine from a checkpoint: fresh cores and uncore
// constructed under the checkpoint's policy (so the restored policy
// metadata matches), state restored, and then — for policy fan-out — the
// LLC policy swapped for a fresh instance of the requested one while the
// warmed cache contents stay.
func restore(ctx context.Context, cp *Checkpoint, policy cache.PolicyName, traces TraceSource, models map[string]*badco.Model) (*machine, error) {
	m, err := build(ctx, cp.Workload, cp.engine(), cp.Policy, traces, models)
	if err != nil {
		return nil, err
	}
	if len(cp.CPU) != len(m.cpus) || len(cp.BADCO) != len(m.badcos) {
		return nil, fmt.Errorf("multicore: checkpoint is not a %d-core snapshot", len(m.cores))
	}
	for i, c := range m.cpus {
		c.Restore(&cp.CPU[i])
	}
	for i, ma := range m.badcos {
		ma.Restore(&cp.BADCO[i])
	}
	m.unc.Restore(&cp.Uncore)
	if policy != cp.Policy {
		if err := m.unc.SetPolicy(policy, m.unc.Config().PolicySeed); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// measureFrom restores a warmup checkpoint and measures spec.Quota
// further µops per thread under spec.Policy, which may differ from the
// warmup policy: the LLC keeps its warmed contents and the replacement
// metadata restarts fresh. Cycles and IPC are relative to the restore
// point. spec.Warmup and spec.Sampling are not read: the checkpoint is
// the warmup.
func measureFrom(ctx context.Context, cp *Checkpoint, spec Spec, traces TraceSource, models map[string]*badco.Model) (Result, error) {
	m, err := restore(ctx, cp, spec.Policy, traces, models)
	if err != nil {
		return Result{}, err
	}
	return m.measure(ctx, cp.Workload, spec.Policy, spec.Resolved(m.traceLen).Quota, nil)
}

// Checkpointed is Run for an exact spec with periodic snapshots: every
// `every` cycles of the minimum local clock, the whole machine is
// captured and handed to sink. A sink error aborts the run. The
// snapshots restore through Resume to the same Result the uninterrupted
// run returns.
func Checkpointed(ctx context.Context, w Workload, spec Spec, traces TraceSource, models map[string]*badco.Model, every uint64, sink func(*Checkpoint) error) (Result, error) {
	if spec.Warmup > 0 || spec.Sampling.Enabled() {
		return Result{}, fmt.Errorf("multicore: checkpointed runs are exact (no warmup or sampling)")
	}
	if every == 0 {
		return Result{}, fmt.Errorf("multicore: checkpoint interval must be positive")
	}
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	m, spec, err := prepare(ctx, w, spec, traces, models)
	if err != nil {
		return Result{}, err
	}
	return m.measure(ctx, w, spec.Policy, spec.Quota, &captureHook{every: every, fn: func(reached []bool, cross []uint64) error {
		cp := &Checkpoint{Workload: append(Workload(nil), w...), Policy: spec.Policy, Quota: spec.Quota}
		m.capture(cp, reached, cross)
		return sink(cp)
	}})
}

// Resume continues an interrupted run from its checkpoint to the
// original quota and returns the Result the uninterrupted run would have
// returned, bit-identically: the schedule is memoryless given the
// restored clocks, committed counts and machine state, and the crossing
// cycles of already-finished threads ride along in the checkpoint.
func Resume(ctx context.Context, cp *Checkpoint, traces TraceSource, models map[string]*badco.Model) (Result, error) {
	if cp.Quota == 0 {
		return Result{}, fmt.Errorf("multicore: checkpoint has no quota (a warmup checkpoint is measured from, not resumed)")
	}
	m, err := restore(ctx, cp, cp.Policy, traces, models)
	if err != nil {
		return Result{}, err
	}
	targets := make([]uint64, len(m.cores))
	for i := range targets {
		targets[i] = cp.Quota
	}
	reached := append([]bool(nil), cp.Reached...)
	cross := append([]uint64(nil), cp.QuotaCycle...)
	if err := schedule(ctx, m.cores, targets, never, reached, cross, nil); err != nil {
		return Result{}, err
	}
	return assemble(cp.Workload, cp.Policy, cross, cp.Quota), nil
}

// SweepPoliciesDetailed measures one workload under the spec once per
// policy, on the detailed engine; spec.Policy and spec.Engine are not
// read. With a zero warmup it runs one independent Run per policy. With
// a positive warmup it warms once under policies[0], snapshots, and
// measures each policy from the shared prefix, so the warmup is paid
// once instead of len(policies) times. The policies run one after
// another: this is the per-workload body of a population sweep, which
// supplies the parallelism (and holds one warmup checkpoint per
// simulation slot rather than per workload).
func SweepPoliciesDetailed(ctx context.Context, w Workload, spec Spec, policies []cache.PolicyName, traces TraceSource) ([]Result, error) {
	if len(policies) == 0 {
		return nil, fmt.Errorf("multicore: no policies")
	}
	spec.Engine, spec.Policy = Detailed, policies[0]
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var cp *Checkpoint
	if spec.Warmup > 0 {
		m, resolved, err := prepare(ctx, w, spec, traces, nil)
		if err != nil {
			return nil, err
		}
		if err := m.warm(ctx, spec.Warmup); err != nil {
			return nil, err
		}
		cp = &Checkpoint{Workload: append(Workload(nil), w...), Policy: spec.Policy}
		m.capture(cp, nil, nil)
		spec = resolved
	}
	results := make([]Result, len(policies))
	for i, p := range policies {
		spec.Policy = p
		var err error
		if cp == nil {
			results[i], err = Run(ctx, w, spec, traces, nil)
		} else {
			results[i], err = measureFrom(ctx, cp, spec, traces, nil)
		}
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
