// Shared-warmup snapshots. A checkpoint captures a whole warmed machine
// — every core (or BADCO machine) and the shared uncore — at the warmup
// boundary, so each policy of a sweep can restore it into freshly built
// machines and measure from the same prefix (SweepPoliciesDetailed). A
// k-policy sweep pays for the warmup once instead of k times, which is
// where the sublinear sweep cost comes from.
package multicore

import (
	"context"
	"fmt"

	"mcbench/internal/badco"
	"mcbench/internal/cache"
	"mcbench/internal/cpu"
	"mcbench/internal/uncore"
)

// checkpoint is an in-memory snapshot of a warmed machine. Exactly one
// of cpu or badco is populated, distinguishing the engine.
type checkpoint struct {
	workload Workload
	policy   cache.PolicyName

	cpu    []cpu.State   // detailed engine, one per core
	badco  []badco.State // approximate engine, one per machine
	uncore uncore.State
}

// engine reports which engine the checkpoint holds state for.
func (cp *checkpoint) engine() Engine {
	if len(cp.cpu) > 0 {
		return Detailed
	}
	return BADCO
}

// capture snapshots the machine, which ran the workload under policy.
func (m *machine) capture(w Workload, policy cache.PolicyName) *checkpoint {
	cp := &checkpoint{workload: append(Workload(nil), w...), policy: policy}
	if m.cpus != nil {
		cp.cpu = make([]cpu.State, len(m.cpus))
		for i, c := range m.cpus {
			c.Snapshot(&cp.cpu[i])
		}
	} else {
		cp.badco = make([]badco.State, len(m.badcos))
		for i, ma := range m.badcos {
			ma.Snapshot(&cp.badco[i])
		}
	}
	m.unc.Snapshot(&cp.uncore)
	return cp
}

// restore rebuilds a machine from a checkpoint: fresh cores and uncore
// constructed under the checkpoint's policy (so the restored policy
// metadata matches), state restored, and then — for policy fan-out — the
// LLC policy swapped for a fresh instance of the requested one while the
// warmed cache contents stay.
func restore(ctx context.Context, cp *checkpoint, policy cache.PolicyName, traces TraceSource, models map[string]*badco.Model) (*machine, error) {
	m, err := build(ctx, cp.workload, cp.engine(), cp.policy, traces, models)
	if err != nil {
		return nil, err
	}
	if len(cp.cpu) != len(m.cpus) || len(cp.badco) != len(m.badcos) {
		return nil, fmt.Errorf("multicore: checkpoint is not a %d-core snapshot", len(m.cores))
	}
	for i, c := range m.cpus {
		c.Restore(&cp.cpu[i])
	}
	for i, ma := range m.badcos {
		ma.Restore(&cp.badco[i])
	}
	m.unc.Restore(&cp.uncore)
	if policy != cp.policy {
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
func measureFrom(ctx context.Context, cp *checkpoint, spec Spec, traces TraceSource, models map[string]*badco.Model) (Result, error) {
	m, err := restore(ctx, cp, spec.Policy, traces, models)
	if err != nil {
		return Result{}, err
	}
	return m.measure(ctx, cp.workload, spec.Policy, spec.Resolved(m.traceLen).Quota)
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
	var cp *checkpoint
	if spec.Warmup > 0 {
		m, resolved, err := prepare(ctx, w, spec, traces, nil)
		if err != nil {
			return nil, err
		}
		if err := m.warm(ctx, spec.Warmup); err != nil {
			return nil, err
		}
		cp = m.capture(w, spec.Policy)
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
