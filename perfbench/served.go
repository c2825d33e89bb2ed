package main

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcbench"
	"mcbench/internal/serve"
)

const (
	// servedClients is the closed loop's client count: each client
	// submits its next job only after the previous one's result.
	servedClients = 2
	// servedMinJobs keeps the measured phase going until job_p95_ms has
	// ten samples beyond it.
	servedMinJobs = 200
	// servedDigestJobs is how many leading jobs the digest covers.
	servedDigestJobs = 64
	// servedBlock is the job count sim_mips is measured over; the
	// reported value is the median over consecutive blocks.
	servedBlock = 50
	// jobTimeout fails a job that has not settled by then.
	jobTimeout = 60 * time.Second
)

// jobSpec is one simulate submission.
type jobSpec struct {
	pair   []string
	engine mcbench.Engine
}

// servedJob returns the k-th job of the seeded stream: the 253 pairs in
// seeded order, alternating BADCO and detailed. The pair count is odd,
// so the second time through the list each pair runs on the other
// engine.
func servedJob(pop [][]string, k int) jobSpec {
	e := mcbench.BADCO
	if k%2 == 1 {
		e = mcbench.Detailed
	}
	return jobSpec{pair: pop[k%len(pop)], engine: e}
}

// jobRecord is one job as the client saw it.
type jobRecord struct {
	k       int
	latency time.Duration
	// finish is when the job returned, from the start of the phase.
	finish time.Duration
	run    simRun
	err    error
	// status is fetched after the result when the caller asks for the
	// server-side phase times (traced runs only).
	status *mcbench.JobStatus
}

// server is an in-process serve.Server on a loopback port.
type server struct {
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func startServer(ctx context.Context) (*server, error) {
	sctx, cancel := context.WithCancel(ctx)
	srv := serve.New(serve.Config{Lab: mcbench.QuickConfig()})
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- srv.ListenAndServe(sctx, "127.0.0.1:0", func(addr string) { ready <- addr })
	}()
	select {
	case addr := <-ready:
		return &server{addr: addr, cancel: cancel, done: done}, nil
	case err := <-done:
		cancel()
		return nil, fmt.Errorf("serve: %w", err)
	}
}

// stop drains the server and waits until it has shut down.
func (s *server) stop() error {
	s.cancel()
	return <-s.done
}

func (s *server) clients(n int) ([]*mcbench.Client, error) {
	cs := make([]*mcbench.Client, n)
	for i := range cs {
		c, err := mcbench.NewClient("http://" + s.addr)
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	return cs, nil
}

// submitAndWait runs one job to its result and checks it.
func submitAndWait(ctx context.Context, c *mcbench.Client, js jobSpec, withStatus bool) jobRecord {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	var rec jobRecord
	start := time.Now()
	st, err := c.SubmitSimulate(ctx, js.pair, mcbench.WithSimulator(js.engine), mcbench.WithPolicy(mcbench.LRU))
	if err != nil {
		rec.err = err
		return rec
	}
	res, err := c.Wait(ctx, st.ID)
	rec.latency = time.Since(start)
	if err != nil {
		rec.err = err
		return rec
	}
	if len(res.Results) != 1 {
		rec.err = fmt.Errorf("job %s: %d results, want 1", st.ID, len(res.Results))
		return rec
	}
	r := res.Results[0]
	rec.run = simRun{ipc: r.IPC, cycles: r.Cycles}
	if rec.err = checkRun(len(js.pair), r.IPC, r.Cycles); rec.err != nil {
		return rec
	}
	if withStatus {
		rec.status, rec.err = c.Job(ctx, st.ID)
	}
	return rec
}

// closedLoop drives the clients, each submitting the next job of the
// stream as soon as its previous one returns, until more(done, elapsed)
// is false. It returns every job record indexed by stream position and
// the phase's wall time.
func closedLoop(ctx context.Context, cs []*mcbench.Client, pop [][]string, withStatus bool, more func(done int, elapsed time.Duration) bool) ([]jobRecord, time.Duration) {
	var (
		next, done atomic.Int64
		mu         sync.Mutex
		recs       []jobRecord
		wg         sync.WaitGroup
	)
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more(int(done.Load()), time.Since(start)) {
				k := int(next.Add(1) - 1)
				rec := submitAndWait(ctx, c, servedJob(pop, k), withStatus)
				rec.k = k
				rec.finish = time.Since(start)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(recs, func(a, b int) bool { return recs[a].k < recs[b].k })
	return recs, elapsed
}

// runServed measures two closed-loop clients submitting simulate jobs
// over loopback HTTP to an in-process server.
func runServed(ctx context.Context, cfg runConfig) (*outcome, uint64, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	pop := pairs(cfg.seed)
	out := &outcome{digestOps: servedDigestJobs}
	// Set-up is server start plus two warm-up jobs per client, one per
	// engine, which let the server's lazy state and the loopback
	// connections settle before timing. The warm-up pairs do not depend
	// on the seed, so neither does the set-up's cost. Each repetition's
	// server is stopped before the next one starts, outside the timed
	// part.
	warmPairs := pairs(designSeed)
	var srv *server
	var cs []*mcbench.Client
	ts := make([]float64, setupReps)
	for i := range ts {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, 0, err
			}
		}
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		if srv, err = startServer(ctx); err != nil {
			return nil, 0, err
		}
		if cs, err = srv.clients(servedClients); err != nil {
			srv.stop()
			return nil, 0, err
		}
		warm, _ := closedLoop(ctx, cs, warmPairs, false, func(done int, _ time.Duration) bool { return done < 2*servedClients })
		ts[i] = time.Since(start).Seconds()
		for _, rec := range warm {
			out.attempted++
			if rec.err != nil {
				out.failed++
				out.notef("warm-up job failed: %v", rec.err)
			}
		}
	}
	setup := median(ts)
	out.notef("set-up repetitions: %.4f s", ts)
	debug.FreeOSMemory()
	recs, elapsed := closedLoop(ctx, cs, pop, false, func(done int, el time.Duration) bool {
		return el < cfg.seconds || done < servedMinJobs
	})
	if err := srv.stop(); err != nil {
		return nil, 0, err
	}

	lat := make([]float64, 0, len(recs))
	byJob := map[int]simRun{}
	for _, r := range recs {
		out.attempted++
		if r.err != nil {
			out.failed++
			continue
		}
		// The stream repeats every 2·len(pop) jobs; a repeat must
		// reproduce the first run exactly.
		if first, ok := byJob[r.k%(2*len(pop))]; ok && !sameCycles(first.cycles, r.run.cycles) {
			out.failed++
			continue
		}
		byJob[r.k%(2*len(pop))] = r.run
		lat = append(lat, float64(r.latency)/1e6)
	}
	var ref [][]uint64
	for k := 0; k < servedDigestJobs; k++ {
		ref = append(ref, byJob[k].cycles)
	}
	ok := len(lat)
	out.set("sim_mips", blockMIPS(recs), "MIPS")
	out.set("setup_s", setup, "s")
	out.notef("served: %d jobs from %d clients in %.3f s", len(recs), servedClients, elapsed.Seconds())
	out.notef("jobs_per_s %.4f 1/s (%d jobs)", float64(ok)/elapsed.Seconds(), ok)
	out.notef("job_p50_ms %.4f ms (%d samples)", percentile(lat, 0.50), ok)
	if v, ok95 := tailPercentile(lat, 0.95, 10); ok95 {
		out.notef("job_p95_ms %.4f ms (%d samples)", v, ok)
	} else {
		out.notef("job_p95_ms missing: %d samples leave fewer than 10 beyond the 95th percentile", ok)
	}
	out.notef("badco_cpi_err_pct %s", servedAccuracy(byJob, len(pop)))
	return out, digest(ref), nil
}

// blockMIPS is the median simulation rate over consecutive blocks of
// servedBlock returned jobs: the quota µops of a block's successful jobs
// over the time from the previous block's last return to its own.
func blockMIPS(recs []jobRecord) float64 {
	byFinish := append([]jobRecord(nil), recs...)
	sort.Slice(byFinish, func(a, b int) bool { return byFinish[a].finish < byFinish[b].finish })
	var rates []float64
	var from time.Duration
	for b := servedBlock; b <= len(byFinish); b += servedBlock {
		uops := 0
		for _, r := range byFinish[b-servedBlock : b] {
			if r.err == nil {
				uops += len(r.run.cycles) * popTraceLen
			}
		}
		to := byFinish[b-1].finish
		rates = append(rates, float64(uops)/(to-from).Seconds()/1e6)
		from = to
	}
	return median(rates)
}

// servedAccuracy compares the BADCO and detailed jobs of every pair
// that ran on both engines.
func servedAccuracy(byJob map[int]simRun, n int) string {
	var sum float64
	var cnt int
	for k := 0; k < 2*n; k++ {
		b, okB := byJob[k]
		if k%2 != 0 || !okB { // even jobs run on BADCO
			continue
		}
		d, okD := byJob[(k+n)%(2*n)]
		if !okD {
			continue
		}
		for t := range b.ipc {
			det := 1 / d.ipc[t]
			sum += math.Abs(1/b.ipc[t]-det) / det
			cnt++
		}
	}
	if cnt == 0 {
		return "missing: no pair ran on both engines"
	}
	return fmt.Sprintf("%.4f %% (simulated, %d threads)", 100*sum/float64(cnt), cnt)
}

// percentile is the nearest-rank q-quantile of a non-empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(r, 0), len(s)-1)]
}

// tailPercentile is percentile for a tail quantile, reported only when
// at least minBeyond samples lie above it; otherwise the sample is too
// small to place the quantile and ok is false.
func tailPercentile(xs []float64, q float64, minBeyond int) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	v = percentile(xs, q)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	return v, beyond >= minBeyond
}
