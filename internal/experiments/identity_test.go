package experiments

import (
	"slices"
	"testing"

	"mcbench/internal/cache"
	"mcbench/internal/multicore"
	"mcbench/internal/results"
)

// identityConfig is a tiny cached campaign: five workloads per
// population, all of them simulated in detail.
func identityConfig(t *testing.T) Config {
	cfg := QuickConfig()
	cfg.TraceLen = 4000
	cfg.PopLimit = 5
	cfg.DetailedCount = 5
	cfg.CacheDir = t.TempDir()
	return cfg
}

// TestProductKeySampledLab pins the fleet's shard key to the store's
// file name on a sampled lab: ProductKey must name the file the lab
// saves each table under, sampled detailed tables and unsampled BADCO
// tables alike, or the fleet would shard a product under one key and
// the fabric serve it under another.
func TestProductKeySampledLab(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	cfg := identityConfig(t)
	cfg.Sampling = multicore.SamplingSpec{Unit: 2000, Window: 500, Warmup: 500, Warm: 500}
	l := NewLab(cfg)
	s, err := results.Open(cfg.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Request{
		{Sim: SimDetailed, Cores: 2, Policy: cache.LRU},
		{Sim: SimBadco, Cores: 2, Policy: cache.LRU},
	} {
		if err := l.fulfill(tctx, r); err != nil {
			t.Fatal(err)
		}
		key, ok := l.ProductKey(r)
		if !ok {
			t.Fatalf("%v has no product key", r)
		}
		keys, err := s.Keys()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(keys, key) {
			t.Errorf("%s product key %s, but the store saved %v", r.Sim, key, keys)
		}
	}
}

// TestStaleModelRecomputes pins the model-fingerprint policy end to
// end: a lab over a cache directory whose tables were computed under
// another model — or under none, written before fingerprints existed —
// runs every sweep again and republishes the tables under its own
// fingerprint, while a lab under the same fingerprint hits every table.
func TestStaleModelRecomputes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	cfg := identityConfig(t)
	products := []Request{
		{Sim: SimBadco, Cores: 2, Policy: cache.LRU},
		{Sim: SimDetailed, Cores: 2, Policy: cache.LRU},
	}
	tables := func(l *Lab) [][][]float64 {
		t.Helper()
		return [][][]float64{must(l.BadcoIPC(tctx, 2, cache.LRU)), must(l.DetailedIPC(tctx, 2, cache.LRU))}
	}
	fresh := NewLab(cfg)
	want := tables(fresh)

	// Restamp the stored tables: the BADCO one as computed by another
	// model, the detailed one as a legacy table without a fingerprint.
	s, err := results.Open(cfg.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	for i, model := range []string{"0000000000000000", ""} {
		id, _ := fresh.identity(products[i])
		tab, ok, err := s.Load(id)
		if err != nil || !ok {
			t.Fatalf("%s table not stored: ok=%v err=%v", products[i].Sim, ok, err)
		}
		tab.Model = model
		if err := s.Save(tab); err != nil {
			t.Fatal(err)
		}
	}

	stale := NewLab(cfg)
	got := tables(stale)
	if b, d := stale.SweepCounts(); b != 1 || d != 1 {
		t.Errorf("lab over stale tables ran %d BADCO and %d detailed sweeps, want 1 and 1", b, d)
	}
	for i := range want {
		assertTableBits(t, string(products[i].Sim), got[i], want[i])
	}
	for _, r := range products {
		id, _ := stale.identity(r)
		if tab, ok, _ := s.Load(id); !ok || tab.Model != multicore.Fingerprint() {
			t.Errorf("%s table not republished under the current fingerprint", r.Sim)
		}
	}

	same := NewLab(cfg)
	got = tables(same)
	if b, d := same.SweepCounts(); b != 0 || d != 0 {
		t.Errorf("lab under the same fingerprint ran %d BADCO and %d detailed sweeps, want every table from the cache", b, d)
	}
	for i := range want {
		assertTableBits(t, string(products[i].Sim), got[i], want[i])
	}
}

// assertTableBits fails unless two IPC tables are bitwise equal.
func assertTableBits(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}
