package serve

// Request canonicalization. Every submission is validated and rewritten
// into a canonical form up front — defaults filled in, workloads
// resolved, names checked against the benchmark source — and the
// canonical form is rendered into a stable key string. The key is the
// dedup identity: two submissions asking for the same computation
// canonicalize to the same key and coalesce onto one job, the serve-side
// analogue of the identity scheme results.IPCTable.Key uses for the
// persistent table cache.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"mcbench/internal/bench"
	"mcbench/internal/cache"
	"mcbench/internal/experiments"
	"mcbench/internal/multicore"
)

// Kind classifies a job.
type Kind string

const (
	// KindExperiment runs a registered experiment (registry-dispatched).
	KindExperiment Kind = "experiment"
	// KindSimulate runs one ad-hoc workload.
	KindSimulate Kind = "simulate"
	// KindSweep runs many ad-hoc workloads under one configuration.
	KindSweep Kind = "sweep"
	// KindWarm precomputes campaign products into the node's persistent
	// cache without rendering a table. The fleet coordinator dispatches
	// campaign shards to workers as warm jobs; the results converge
	// through the content-addressed cache, not the job result.
	KindWarm Kind = "warm"
)

// Engine names on the wire.
const (
	EngineDetailed = "detailed"
	EngineBadco    = "badco"
)

// SubmitRequest is the wire form of a job submission: a kind plus the
// matching payload. Exactly one payload must be set.
type SubmitRequest struct {
	Kind       Kind               `json:"kind"`
	Experiment *ExperimentRequest `json:"experiment,omitempty"`
	Simulate   *SimulateRequest   `json:"simulate,omitempty"`
	Sweep      *SweepRequest      `json:"sweep,omitempty"`
	Warm       *WarmRequest       `json:"warm,omitempty"`
}

// ProductRef names one campaign product on the wire (the serve form of
// experiments.Request). Cores and Policy are meaningful per the
// simulator, exactly as in the campaign planner.
type ProductRef struct {
	Sim    string `json:"sim"`
	Cores  int    `json:"cores,omitempty"`
	Policy string `json:"policy,omitempty"`
}

// WarmRequest asks a node to warm the named products into its lab (and
// persistent cache, when configured).
type WarmRequest struct {
	Products []ProductRef `json:"products"`
}

// ExperimentRequest asks for one registered experiment.
type ExperimentRequest struct {
	// Name is a registry experiment name (see /experiments).
	Name string `json:"name"`
	// Cores pins the core count; 0 means the experiment's paper default.
	Cores int `json:"cores,omitempty"`
}

// SimulateRequest asks for one ad-hoc workload simulation. The trace
// length is the server lab's Config.TraceLen.
type SimulateRequest struct {
	// Workload is one benchmark name per core. A single name with
	// Cores > 1 is replicated onto all cores.
	Workload []string `json:"workload"`
	// Policy is the LLC replacement policy (default "LRU").
	Policy string `json:"policy,omitempty"`
	// Engine is "detailed" (default) or "badco".
	Engine string `json:"engine,omitempty"`
	// Quota is the per-thread instruction quota (0: one trace length).
	Quota uint64 `json:"quota,omitempty"`
	// Warmup runs each thread for that many committed µops before the
	// measurement window opens (0: measure from reset). It must not
	// exceed the quota; submissions violating that are rejected before
	// enqueueing.
	Warmup uint64 `json:"warmup,omitempty"`
	// Cores replicates a single-benchmark workload; 0 keeps the
	// workload's own width.
	Cores int `json:"cores,omitempty"`
	// Sampling, when set, runs the detailed simulation under systematic
	// sampling (multicore.Spec.Sampling): the returned IPCs become
	// steady-state estimates with confidence and cv columns. Requires
	// the detailed engine and is mutually exclusive with Warmup.
	Sampling *SampleSpec `json:"sampling,omitempty"`
}

// SampleSpec is the wire form of a systematic-sampling schedule: per
// Unit µops one Window of detailed measurement after Warmup detailed
// warmup µops, the gap fast-forwarded under functional warming (bounded
// to the last Warm µops when Warm is non-zero).
type SampleSpec = multicore.SamplingSpec

// SweepRequest is SimulateRequest over many workloads at once.
type SweepRequest struct {
	Workloads [][]string  `json:"workloads"`
	Policy    string      `json:"policy,omitempty"`
	Engine    string      `json:"engine,omitempty"`
	Quota     uint64      `json:"quota,omitempty"`
	Warmup    uint64      `json:"warmup,omitempty"`
	Cores     int         `json:"cores,omitempty"`
	Sampling  *SampleSpec `json:"sampling,omitempty"`
}

// submitError is a validation failure; the handler maps it to 400.
type submitError struct{ msg string }

func (e *submitError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &submitError{msg: fmt.Sprintf(format, args...)}
}

// canonicalize validates the submission against the source and registry,
// fills in defaults, resolves workloads, and returns the canonical
// request plus its dedup key. traceLen is the lab's per-benchmark trace
// length; it resolves a zero quota when validating the warmup window.
func canonicalize(req SubmitRequest, src bench.Source, traceLen int) (SubmitRequest, string, error) {
	switch req.Kind {
	case KindExperiment:
		if req.Experiment == nil {
			return req, "", badRequest("serve: experiment submission without payload")
		}
		e := *req.Experiment
		if e.Cores < 0 {
			return req, "", badRequest("serve: negative cores %d", e.Cores)
		}
		if _, ok := experiments.Lookup(e.Name); !ok {
			msg := fmt.Sprintf("serve: unknown experiment %q", e.Name)
			if s := experiments.Suggest(e.Name); s != "" {
				msg += fmt.Sprintf(" (did you mean %q?)", s)
			}
			return req, "", badRequest("%s", msg)
		}
		canon := SubmitRequest{Kind: KindExperiment, Experiment: &e}
		return canon, fmt.Sprintf("exp|%s|c%d", e.Name, e.Cores), nil

	case KindSimulate, KindSweep:
		return canonRun(req, src, traceLen)

	case KindWarm:
		if req.Warm == nil {
			return req, "", badRequest("serve: warm submission without payload")
		}
		wr := *req.Warm
		if len(wr.Products) == 0 {
			return req, "", badRequest("serve: empty warm plan")
		}
		seen := make(map[experiments.Request]bool, len(wr.Products))
		var norm []experiments.Request
		for _, p := range wr.Products {
			r, err := canonProduct(p)
			if err != nil {
				return req, "", err
			}
			if !seen[r] {
				seen[r] = true
				norm = append(norm, r)
			}
		}
		// Sorted products make the dedup key order-insensitive: two
		// shards naming the same set coalesce regardless of plan order.
		sort.Slice(norm, func(i, j int) bool {
			a, b := norm[i], norm[j]
			if a.Sim != b.Sim {
				return a.Sim < b.Sim
			}
			if a.Cores != b.Cores {
				return a.Cores < b.Cores
			}
			return a.Policy < b.Policy
		})
		products := make([]ProductRef, len(norm))
		h := fnv.New64a()
		for i, r := range norm {
			products[i] = ProductRef{Sim: string(r.Sim), Cores: r.Cores, Policy: string(r.Policy)}
			fmt.Fprintf(h, "%s|%d|%s\n", r.Sim, r.Cores, r.Policy)
		}
		wr.Products = products
		canon := SubmitRequest{Kind: KindWarm, Warm: &wr}
		return canon, fmt.Sprintf("warm|n%d|%016x", len(products), h.Sum64()), nil

	default:
		return req, "", badRequest("serve: unknown job kind %q", req.Kind)
	}
}

// canonRun canonicalizes a simulate or sweep submission. A simulate
// request is a one-workload sweep with its own key form.
func canonRun(req SubmitRequest, src bench.Source, traceLen int) (SubmitRequest, string, error) {
	var s SweepRequest
	switch {
	case req.Kind == KindSimulate && req.Simulate != nil:
		r := req.Simulate
		s = SweepRequest{Workloads: [][]string{r.Workload}, Policy: r.Policy, Engine: r.Engine,
			Quota: r.Quota, Warmup: r.Warmup, Cores: r.Cores, Sampling: r.Sampling}
	case req.Kind == KindSweep && req.Sweep != nil:
		s = *req.Sweep
		if len(s.Workloads) == 0 {
			return req, "", badRequest("serve: empty sweep")
		}
	default:
		return req, "", badRequest("serve: %s submission without payload", req.Kind)
	}
	w, policy, engine, err := canonSim(src, s.Workloads, s.Policy, s.Engine, s.Cores)
	if err != nil {
		return req, "", err
	}
	if err := checkRun(runSpec(engine, policy, s.Quota, s.Warmup, s.Sampling), s.Sampling, traceLen); err != nil {
		return req, "", err
	}
	s.Workloads, s.Policy, s.Engine = w, policy, engine
	var canon SubmitRequest
	var key string
	if req.Kind == KindSimulate {
		r := *req.Simulate
		r.Workload, r.Policy, r.Engine = w[0], policy, engine
		canon = SubmitRequest{Kind: KindSimulate, Simulate: &r}
		key = fmt.Sprintf("sim|%s|%s|q%d|%s", engine, policy, s.Quota, strings.Join(r.Workload, ","))
	} else {
		canon = SubmitRequest{Kind: KindSweep, Sweep: &s}
		// Workload lists can be large; the key carries a digest plus the
		// shape so distinct sweeps cannot collide in practice.
		h := fnv.New64a()
		for _, wl := range s.Workloads {
			h.Write([]byte(strings.Join(wl, ",")))
			h.Write([]byte{'\n'})
		}
		key = fmt.Sprintf("sweep|%s|%s|q%d|n%d|%016x", engine, policy, s.Quota, len(s.Workloads), h.Sum64())
	}
	if s.Warmup > 0 {
		key += fmt.Sprintf("|w%d", s.Warmup)
	}
	if s.Sampling != nil {
		key += "|smp" + s.Sampling.String()
	}
	return canon, key, nil
}

// canonProduct validates one wire product and returns its normalized
// campaign request.
func canonProduct(p ProductRef) (experiments.Request, error) {
	sim := experiments.Simulator(p.Sim)
	switch sim {
	case experiments.SimBadco, experiments.SimDetailed:
		if p.Cores <= 0 {
			return experiments.Request{}, badRequest("serve: product %q needs cores > 0", p.Sim)
		}
		if p.Policy == "" {
			return experiments.Request{}, badRequest("serve: product %q needs a policy", p.Sim)
		}
		if _, err := cache.NewPolicy(cache.PolicyName(p.Policy), 0); err != nil {
			return experiments.Request{}, badRequest("serve: %v", err)
		}
	case experiments.SimRef:
		if p.Cores <= 0 {
			return experiments.Request{}, badRequest("serve: product %q needs cores > 0", p.Sim)
		}
	case experiments.SimMPKI, experiments.SimModels:
	default:
		return experiments.Request{}, badRequest("serve: unknown product simulator %q", p.Sim)
	}
	r := experiments.Request{Sim: sim, Cores: p.Cores, Policy: cache.PolicyName(p.Policy)}
	return r.Normalized(), nil
}

// runSpec is the multicore run a simulate or sweep request describes;
// engine and policy are already canonical.
func runSpec(engine, policy string, quota, warmup uint64, sampling *SampleSpec) multicore.Spec {
	e := multicore.Detailed
	if engine == EngineBadco {
		e = multicore.BADCO
	}
	spec := multicore.Spec{Engine: e, Policy: cache.PolicyName(policy), Quota: quota, Warmup: warmup}
	if sampling != nil {
		spec.Sampling = *sampling
	}
	return spec
}

// checkRun refuses an impossible run before it is enqueued: the spec,
// its zero quota resolved to the lab's trace length, must validate, and
// a sampling field that is present must ask for sampling.
func checkRun(spec multicore.Spec, sampling *SampleSpec, traceLen int) error {
	if err := spec.Resolved(traceLen).Validate(); err != nil {
		return badRequest("serve: %v", err)
	}
	if sampling != nil && !spec.Sampling.Enabled() {
		return badRequest("serve: empty sampling spec (omit the field for an exact run)")
	}
	return nil
}

// canonSim validates and canonicalizes the shared simulate/sweep fields:
// policy and engine defaults, WithCores-style replication, and name
// validation against the source (checkRun validates the policy).
func canonSim(src bench.Source, workloads [][]string, policy, engine string, cores int) (resolved [][]string, pol, eng string, err error) {
	if policy == "" {
		policy = string(cache.LRU)
	}
	switch engine {
	case "":
		engine = EngineDetailed
	case EngineDetailed, EngineBadco:
	default:
		return nil, "", "", badRequest("serve: unknown engine %q (want %q or %q)", engine, EngineDetailed, EngineBadco)
	}
	if cores < 0 {
		return nil, "", "", badRequest("serve: negative cores %d", cores)
	}
	resolved = make([][]string, len(workloads))
	for i, w := range workloads {
		rw, err := resolveWorkload(w, cores)
		if err != nil {
			return nil, "", "", err
		}
		resolved[i] = rw
	}
	if _, err := bench.CheckNames(src, resolved); err != nil {
		return nil, "", "", badRequest("%v (see /benches)", err)
	}
	return resolved, policy, engine, nil
}

// resolveWorkload applies the cores option to one named workload: a
// single benchmark is replicated onto all cores, a multi-benchmark
// workload must already match.
func resolveWorkload(workload []string, cores int) ([]string, error) {
	if len(workload) == 0 {
		return nil, badRequest("serve: empty workload")
	}
	if cores == 0 || cores == len(workload) {
		return append([]string(nil), workload...), nil
	}
	if len(workload) == 1 {
		w := make([]string, cores)
		for i := range w {
			w[i] = workload[0]
		}
		return w, nil
	}
	return nil, badRequest("serve: workload has %d threads but cores=%d was given", len(workload), cores)
}
