package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestCheckRunRejectsPerturbedResults(t *testing.T) {
	good := func() ([]float64, []uint64) { return []float64{1.25, 0.5}, []uint64{16000, 40000} }
	if ipc, cyc := good(); checkRun(2, ipc, cyc) != nil {
		t.Fatalf("a valid result was rejected: %v", checkRun(2, ipc, cyc))
	}
	perturb := map[string]func(ipc []float64, cyc []uint64) ([]float64, []uint64){
		"NaN IPC":            func(ipc []float64, cyc []uint64) ([]float64, []uint64) { ipc[0] = math.NaN(); return ipc, cyc },
		"infinite IPC":       func(ipc []float64, cyc []uint64) ([]float64, []uint64) { ipc[1] = math.Inf(1); return ipc, cyc },
		"zero IPC":           func(ipc []float64, cyc []uint64) ([]float64, []uint64) { ipc[0] = 0; return ipc, cyc },
		"IPC above width":    func(ipc []float64, cyc []uint64) ([]float64, []uint64) { ipc[0] = commitWidth + 0.01; return ipc, cyc },
		"zero cycles":        func(ipc []float64, cyc []uint64) ([]float64, []uint64) { cyc[1] = 0; return ipc, cyc },
		"missing thread":     func(ipc []float64, cyc []uint64) ([]float64, []uint64) { return ipc[:1], cyc[:1] },
		"cycles without IPC": func(ipc []float64, cyc []uint64) ([]float64, []uint64) { return ipc[:1], cyc },
	}
	for name, p := range perturb {
		if ipc, cyc := p(good()); checkRun(2, ipc, cyc) == nil {
			t.Errorf("%s: perturbed result passed the check", name)
		}
	}
}

func TestDigestCatchesOneCycle(t *testing.T) {
	ref := [][]uint64{{16000, 40000}, {23000, 23001}}
	d := digest(ref)
	for i := range ref {
		for j := range ref[i] {
			ref[i][j]++
			if digest(ref) == d {
				t.Errorf("cycles[%d][%d]+1 left the digest unchanged", i, j)
			}
			ref[i][j]--
		}
	}
	if digest([][]uint64{{1, 2}, {3}}) == digest([][]uint64{{1}, {2, 3}}) {
		t.Error("digest ignores how cycles split into co-schedules")
	}
	if digest(ref) != d {
		t.Fatal("digest is not a function of the cycles")
	}
}

// A stored reference rejects a result that differs from it by a single
// cycle; the perturbed run is what the run counts as failed.
func TestReferenceRejectsPerturbedDigest(t *testing.T) {
	for wl, seeds := range references {
		for seed, d := range seeds {
			if !referenceMatches(wl, seed, d) {
				t.Errorf("%s seed %d: the stored digest does not match itself", wl, seed)
			}
			if referenceMatches(wl, seed, d^1) {
				t.Errorf("%s seed %d: a perturbed digest matched", wl, seed)
			}
		}
	}
	if !referenceMatches("badco-pop", -12345, 42) {
		t.Error("a seed without a stored reference must not fail the digest check")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// 199 samples: the nearest-rank p95 is the 190th value, with 9 above.
	if _, ok := tailPercentile(sample(199), 0.95, 10); ok {
		t.Error("p95 reported with only 9 samples beyond it")
	}
	// 200 samples: p95 is the 190th value, with 10 above.
	v, ok := tailPercentile(sample(200), 0.95, 10)
	if !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	// Ties at the percentile are not beyond it.
	tied := append(sample(190), 190, 190, 190, 190, 190, 190, 190, 190, 190, 190)
	if _, ok := tailPercentile(tied, 0.95, 10); ok {
		t.Error("samples equal to p95 were counted beyond it")
	}
	if _, ok := tailPercentile(nil, 0.95, 10); ok {
		t.Error("p95 of no samples reported")
	}
}

func TestPopulationsFollowTheSeed(t *testing.T) {
	a, b := pairs(1), pairs(1)
	if len(a) != 253 {
		t.Fatalf("%d pairs, want 253", len(a))
	}
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
			t.Fatal("the same seed gave different pairs")
		}
	}
	c := pairs(2)
	same := true
	for i := range a {
		same = same && a[i][0] == c[i][0] && a[i][1] == c[i][1]
	}
	if same {
		t.Error("seeds 1 and 2 gave the same pair order")
	}
	count := map[string]int{}
	for _, g := range groups(7, 4, 11) {
		for _, n := range g {
			count[n]++
		}
	}
	for n, k := range count {
		if k != 2 {
			t.Errorf("%s runs %d times in 11 balanced 4-core co-schedules, want 2", n, k)
		}
	}
	if len(evenPairs(3)) != 132 {
		t.Errorf("%d even pairs, want 132", len(evenPairs(3)))
	}
}

// Whatever runs the benchmark reads the metric and workload names from
// BENCHMARK.json at the repository root; the program must print exactly
// those.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name string } `json:"per_layer"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", w.Name)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perfbench reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %q, perfbench %q", i, m.Name, perLayer[i])
		}
	}
	want := map[string]bool{"sim_mips": true, "setup_s": true, "peak_rss_mb": true}
	for _, m := range b.EndToEnd {
		if !want[m.Name] {
			t.Errorf("BENCHMARK.json end-to-end metric %q is not reported", m.Name)
		}
		delete(want, m.Name)
	}
	for n := range want {
		t.Errorf("reported end-to-end metric %q is missing from BENCHMARK.json", n)
	}
}
