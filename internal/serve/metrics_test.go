package serve

// Telemetry-surface tests: the /metrics endpoint in both exposition
// forms tracking one job's lifecycle exactly, dedup visibility (8
// submissions → 1 sweep in the scraped series), the stats-snapshot
// consistency invariant under concurrent churn (the /healthz torn-read
// fix), and the opt-in pprof mount.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mcbench/internal/experiments"
	"mcbench/internal/telemetry"
)

func promText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsLifecycle pins the endpoint against one simulation-free
// job: every job counter advances by exactly its share, the HTTP series
// are labelled by route pattern, and both exposition forms agree.
func TestMetricsLifecycle(t *testing.T) {
	s := newTestServer(t, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := promText(t, ts.URL)
	for _, want := range []string{
		"# TYPE mcbench_jobs_submitted_total counter",
		"mcbench_jobs_submitted_total 0",
		"# TYPE mcbench_jobs_queued gauge",
		"# TYPE mcbench_http_request_seconds histogram",
		`mcbench_sweeps_total{sim="badco"} 0`,
		`mcbench_sweeps_total{sim="detailed"} 0`,
	} {
		if !strings.Contains(before, want) {
			t.Errorf("fresh /metrics lacks %q", want)
		}
	}

	st := submit(t, ts.URL, SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "config"}})
	if _, final := waitTerminal(t, ts.URL, st.ID, 30*time.Second); final != StateDone {
		t.Fatalf("final state %q", final)
	}
	waitSettled(t, s.mgr, 1)

	var snap telemetry.Snapshot
	if code := getJSON(t, ts.URL+"/metrics?format=json", &snap); code != http.StatusOK {
		t.Fatalf("/metrics?format=json: %d", code)
	}
	for name, want := range map[string]float64{
		"mcbench_jobs_submitted_total": 1,
		"mcbench_jobs_executed_total":  1,
		"mcbench_jobs_completed_total": 1,
		"mcbench_jobs_failed_total":    0,
		"mcbench_jobs_coalesced_total": 0,
		"mcbench_sweeps_total":         0, // config is simulation-free
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if q, r := snap.Gauge("mcbench_jobs_queued"), snap.Gauge("mcbench_jobs_running"); q != 0 || r != 0 {
		t.Errorf("settled server gauges queued=%g running=%g, want 0/0", q, r)
	}
	if up := snap.Gauge("mcbench_uptime_seconds"); up <= 0 {
		t.Errorf("uptime gauge %g, want > 0", up)
	}
	// The HTTP series count by route pattern, and exactly: one POST /jobs
	// happened, with a latency observation to match.
	if got := snap.Counters[`mcbench_http_requests_total{endpoint="POST /jobs"}`]; got != 1 {
		t.Errorf("POST /jobs request counter = %g, want 1", got)
	}
	if h := snap.Histograms[`mcbench_http_request_seconds{endpoint="POST /jobs"}`]; h.Count != 1 {
		t.Errorf("POST /jobs latency count = %d, want 1", h.Count)
	}

	after := promText(t, ts.URL)
	for _, want := range []string{
		"mcbench_jobs_submitted_total 1",
		"mcbench_jobs_completed_total 1",
		`mcbench_http_requests_total{endpoint="POST /jobs"} 1`,
	} {
		if !strings.Contains(after, want) {
			t.Errorf("post-job /metrics lacks %q", want)
		}
	}
}

// TestMetricsDedupVisibility is the dedup tentpole seen through the
// telemetry surface: 8 identical submissions scrape as submitted=8,
// coalesced=7, executed=1 and exactly one badco sweep.
func TestMetricsDedupVisibility(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweep")
	}
	s := newTestServer(t, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const m = 8
	req := SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: "srvtest-gate"}}
	var id string
	for i := 0; i < m; i++ {
		st := submit(t, ts.URL, req)
		if i == 0 {
			id = st.ID
		} else if st.ID != id || !st.Deduped {
			t.Fatalf("submission %d: id=%s deduped=%v, want coalesced onto %s", i, st.ID, st.Deduped, id)
		}
	}
	close(gate)
	defer func() { gate = make(chan struct{}) }()
	if _, final := waitTerminal(t, ts.URL, id, 60*time.Second); final != StateDone {
		t.Fatalf("final state %q", final)
	}
	waitSettled(t, s.mgr, 1)

	var snap telemetry.Snapshot
	getJSON(t, ts.URL+"/metrics?format=json", &snap)
	for name, want := range map[string]float64{
		"mcbench_jobs_submitted_total": m,
		"mcbench_jobs_coalesced_total": m - 1,
		"mcbench_jobs_executed_total":  1,
		"mcbench_jobs_completed_total": 1,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if got := snap.Counters[`mcbench_sweeps_total{sim="badco"}`]; got != 1 {
		t.Errorf("badco sweep series = %g, want exactly 1 for %d coalesced submissions", got, m)
	}
}

// TestStatsInvariantUnderConcurrency pins the /healthz torn-snapshot
// fix: under concurrent submission, cancellation and completion, every
// stats snapshot satisfies queued+running+settled == submitted−coalesced.
// Run with -race this also proves the single-critical-section settle path.
func TestStatsInvariantUnderConcurrency(t *testing.T) {
	release := make(chan struct{})
	m := newManager(4, 1024, 0, 0, func(ctx context.Context, j *job) (*JobResult, error) {
		select {
		case <-release:
			return &JobResult{ID: j.id, Kind: j.req.Kind}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	defer m.drain()

	stop := make(chan struct{})
	torn := make(chan Stats, 1)
	var checkers sync.WaitGroup
	for i := 0; i < 4; i++ {
		checkers.Add(1)
		go func() {
			defer checkers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := m.snapshotStats()
				if st.Queued+st.Running+st.Done+st.Failed+st.Canceled != st.Submitted-st.Coalesced {
					select {
					case torn <- st:
					default:
					}
					return
				}
				runtime.Gosched()
			}
		}()
	}

	var subs sync.WaitGroup
	for g := 0; g < 8; g++ {
		subs.Add(1)
		go func(g int) {
			defer subs.Done()
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("k%d-%d", g, i%15) // repeats coalesce
				j, deduped, err := m.submit(expReq(key), key)
				if err != nil {
					t.Error(err)
					return
				}
				if !deduped && i%3 == 0 {
					m.cancelJob(j.id)
				}
			}
		}(g)
	}
	subs.Wait()
	close(release)
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := m.snapshotStats()
		if st.Queued == 0 && st.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never settled: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	checkers.Wait()
	select {
	case st := <-torn:
		t.Fatalf("torn stats snapshot %+v: queued+running+settled = %d, submitted-coalesced = %d",
			st, st.Queued+st.Running+st.Done+st.Failed+st.Canceled, st.Submitted-st.Coalesced)
	default:
	}
	final := m.snapshotStats()
	if got, want := final.Done+final.Failed+final.Canceled, final.Submitted-final.Coalesced; got != want {
		t.Errorf("settled %d of %d effective submissions: %+v", got, want, final)
	}
}

// TestPprofOptIn: the profiling mux is mounted only when asked.
func TestPprofOptIn(t *testing.T) {
	registerTestExperiments()
	labCfg := experiments.QuickConfig()
	labCfg.TraceLen = 2000
	off := New(Config{Lab: labCfg, Workers: 1})
	t.Cleanup(off.Drain)
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	if resp, err := http.Get(tsOff.URL + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without opt-in: %d, want 404", resp.StatusCode)
	}

	on := New(Config{Lab: labCfg, Workers: 1, Pprof: true})
	t.Cleanup(on.Drain)
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	resp, err := http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index: %d %q", resp.StatusCode, body)
	}
}
