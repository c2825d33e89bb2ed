package experiments

// The campaign runner. Every experiment declares the expensive memoized
// products it reads — population IPC tables, reference IPCs, the MPKI
// measurement — via its registry Requests method, and Warm precomputes a
// whole plan with bounded parallelism. Population sweeps already
// parallelise across workloads internally; Warm adds the campaign-level
// axis, so different tables build concurrently and a full paper
// reproduction saturates the host.

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"mcbench/internal/cache"
)

// Simulator names the engine (or measurement) behind a warmed product.
type Simulator string

const (
	// SimBadco is a BADCO population IPC table (BadcoIPC).
	SimBadco Simulator = "badco"
	// SimDetailed is a detailed-model IPC table over the detailed
	// sample (DetailedIPC).
	SimDetailed Simulator = "detailed"
	// SimRef is the per-benchmark alone reference IPC vector (RefIPC).
	SimRef Simulator = "ref"
	// SimMPKI is the per-benchmark alone MPKI measurement (MPKI);
	// Cores and Policy are ignored.
	SimMPKI Simulator = "mpki"
	// SimModels is the BADCO model set (Models); Cores and Policy are
	// ignored. Table III and the sim subcommand need the models without
	// any population table.
	SimModels Simulator = "models"
)

// Request names one memoized Lab product a campaign needs. Policy is
// meaningful only for SimBadco and SimDetailed; Cores only for those and
// SimRef.
type Request struct {
	Sim    Simulator
	Cores  int
	Policy cache.PolicyName
}

// Normalized returns the request with the fields its simulator ignores
// zeroed — the identity Warm dedups by and ProductEvents report, so that
// equivalent requests deduplicate. The serve subsystem keys its event
// routing by it.
func (r Request) Normalized() Request {
	switch r.Sim {
	case SimMPKI, SimModels:
		r.Cores, r.Policy = 0, ""
	case SimRef:
		r.Policy = ""
	}
	return r
}

// fulfill computes the requested product (blocking until it is memoized).
func (l *Lab) fulfill(ctx context.Context, r Request) error {
	var err error
	switch r.Sim {
	case SimBadco:
		_, err = l.BadcoIPC(ctx, r.Cores, r.Policy)
	case SimDetailed:
		_, err = l.DetailedIPC(ctx, r.Cores, r.Policy)
	case SimRef:
		_, err = l.RefIPC(ctx, r.Cores)
	case SimMPKI:
		_, err = l.MPKI(ctx)
	case SimModels:
		_, err = l.Models(ctx)
	}
	return err
}

// Warm precomputes every requested product with at most workers
// concurrent builds (workers <= 0 means GOMAXPROCS). The plan is
// deduplicated, and products already memoized return immediately, so
// warming overlapping plans is free. It returns the number of distinct
// products the plan named.
//
// Cancelling the context stops dispatching new products, interrupts the
// in-flight sweeps, waits for every worker to drain (no goroutine
// leaks), and returns the context's error. Products fully warmed before
// the cancellation stay memoized (and persisted when CacheDir is set),
// so an interrupted campaign resumes where it left off.
//
// Shared prerequisites (traces, BADCO models) are not built eagerly:
// the first worker to need them builds them behind their single-flight
// guard — internally parallel — while the rest block, and a plan fully
// served by the persistent cache never builds them at all.
//
// The workers are coordinators, not the CPU bound: every sweep they
// trigger draws simulation slots from multicore's process-wide budget
// (see multicore.RunBounded), so campaign-level and per-sweep
// parallelism compose without multiplying.
func (l *Lab) Warm(ctx context.Context, plan []Request, workers int) (int, error) {
	seen := make(map[Request]bool, len(plan))
	var uniq []Request
	for _, r := range plan {
		r = r.Normalized()
		if seen[r] {
			continue
		}
		seen[r] = true
		uniq = append(uniq, r)
	}
	if len(uniq) == 0 {
		return 0, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	sem := make(chan struct{}, workers)
	done := ctx.Done()
loop:
	for _, r := range uniq {
		// Acquire before spawning: at most `workers` goroutines exist.
		select {
		case <-done:
			break loop
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(r Request) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := l.fulfill(ctx, r); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return len(uniq), err
	}
	return len(uniq), errors.Join(errs...)
}

// KeyedRequest pairs a campaign request with the content key of the
// persisted table it produces — the shard key the fleet partitions by.
type KeyedRequest struct {
	Req Request
	Key string
}

// ProductKey returns the persistent-store content key the request's
// product is saved under, given this lab's configuration (see identity:
// only population IPC tables have one). The key is a pure function of
// the lab config, so every fleet node computes identical keys without
// coordination.
func (l *Lab) ProductKey(r Request) (string, bool) {
	id, ok := l.identity(r)
	return id.Key(), ok
}

// PartitionPlan reduces a campaign plan to its shardable products:
// normalized, deduplicated, and keyed by content identity. The fleet
// coordinator partitions the result across workers by rendezvous-hashing
// each Key; requests without a content key stay local.
func (l *Lab) PartitionPlan(plan []Request) []KeyedRequest {
	seen := make(map[Request]bool, len(plan))
	var out []KeyedRequest
	for _, r := range plan {
		r = r.Normalized()
		if seen[r] {
			continue
		}
		seen[r] = true
		if key, ok := l.ProductKey(r); ok {
			out = append(out, KeyedRequest{Req: r, Key: key})
		}
	}
	return out
}

// badcoSet expands a policy list into BADCO table requests at one core
// count.
func badcoSet(cores int, pols []cache.PolicyName) []Request {
	out := make([]Request, 0, len(pols))
	for _, p := range pols {
		out = append(out, Request{Sim: SimBadco, Cores: cores, Policy: p})
	}
	return out
}

// detailedSet expands a policy list into detailed table requests at one
// core count.
func detailedSet(cores int, pols []cache.PolicyName) []Request {
	out := make([]Request, 0, len(pols))
	for _, p := range pols {
		out = append(out, Request{Sim: SimDetailed, Cores: cores, Policy: p})
	}
	return out
}

// pairPolicies flattens policy pairs into the distinct policies they
// mention.
func pairPolicies(pairs [][2]cache.PolicyName) []cache.PolicyName {
	seen := map[cache.PolicyName]bool{}
	var out []cache.PolicyName
	for _, pr := range pairs {
		for _, p := range pr {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// CampaignPlan aggregates the registry Requests of the named experiments
// ("all" expands to the paper's full set). p carries the run parameters
// the requests depend on (the -cores flag). Unknown names are ignored —
// name validation is the dispatcher's job, before planning.
func (l *Lab) CampaignPlan(names []string, p Params) []Request {
	var plan []Request
	for _, name := range names {
		if name == "all" {
			plan = append(plan, l.CampaignPlan(AllExperiments(), p)...)
			continue
		}
		if e, ok := Lookup(name); ok {
			plan = append(plan, e.Requests(l, p)...)
		}
	}
	return plan
}
