package results

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func table() *IPCTable {
	return &IPCTable{
		Identity: Identity{
			Simulator:  "badco",
			Cores:      2,
			Policy:     "LRU",
			TraceLen:   1000,
			Population: 3,
			Seed:       7,
		},
		IPC: [][]float64{{1, 2}, {0.5, 1.5}, {2, 2}},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := table()
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load(Identity{
		Simulator: "badco", Cores: 2, Policy: "LRU", TraceLen: 1000, Population: 3, Seed: 7,
	})
	if err != nil || !ok {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	for i := range want.IPC {
		for k := range want.IPC[i] {
			if got.IPC[i][k] != want.IPC[i][k] {
				t.Fatalf("IPC[%d][%d] = %g, want %g", i, k, got.IPC[i][k], want.IPC[i][k])
			}
		}
	}
}

func TestLoadAbsent(t *testing.T) {
	s, _ := Open(t.TempDir())
	_, ok, err := s.Load(Identity{Simulator: "x", Cores: 1, Policy: "LRU", TraceLen: 1, Population: 0})
	if err != nil || ok {
		t.Fatalf("absent load: ok=%v err=%v", ok, err)
	}
}

func TestKeyDistinguishesParameters(t *testing.T) {
	a := table()
	b := table()
	b.Policy = "DIP"
	if a.Key() == b.Key() {
		t.Error("different policies share a key")
	}
	c := table()
	c.TraceLen = 2000
	if a.Key() == c.Key() {
		t.Error("different trace lengths share a key")
	}
}

func TestValidateRejectsBadTables(t *testing.T) {
	cases := []func(*IPCTable){
		func(t *IPCTable) { t.Simulator = "" },
		func(t *IPCTable) { t.Cores = 0 },
		func(t *IPCTable) { t.Population = 5 },             // row mismatch
		func(t *IPCTable) { t.IPC[1] = []float64{1} },      // core mismatch
		func(t *IPCTable) { t.IPC[0] = []float64{0, 1} },   // non-positive IPC
		func(t *IPCTable) { t.IPC[2] = []float64{-1, -1} }, // negative
	}
	for i, mutate := range cases {
		tab := table()
		mutate(tab)
		if err := tab.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad table", i)
		}
	}
	if err := table().Validate(); err != nil {
		t.Errorf("Validate rejected good table: %v", err)
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	s, _ := Open(t.TempDir())
	bad := table()
	bad.Cores = 0
	if err := s.Save(bad); err == nil {
		t.Error("Save accepted invalid table")
	}
}

func TestCorruptFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	want := table()
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	// Corrupt the file on disk.
	path := filepath.Join(dir, want.Key()+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Corruption is a miss, never an error and never a wrong table: the
	// caller recomputes while the bad file moves to quarantine.
	got, ok, err := s.Load(want.Identity)
	if err != nil || ok || got != nil {
		t.Fatalf("Load(corrupt) = %v, %v, %v; want miss", got, ok, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt file left live after Load")
	}
	q := filepath.Join(dir, QuarantineDir, want.Key()+".json")
	if _, err := os.Stat(q); err != nil {
		t.Errorf("corrupt file not quarantined: %v", err)
	}
	// A recompute republishes cleanly over the quarantined name.
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Load(want.Identity); err != nil || !ok || got == nil {
		t.Fatalf("reload after recompute = %v, %v, %v", got, ok, err)
	}
}

func TestKeysAndDelete(t *testing.T) {
	s, _ := Open(t.TempDir())
	a := table()
	b := table()
	b.Policy = "DIP"
	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(b); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys()
	if err != nil || len(keys) != 2 {
		t.Fatalf("keys %v err %v", keys, err)
	}
	if err := s.Delete(a.Key()); err != nil {
		t.Fatal(err)
	}
	keys, _ = s.Keys()
	if len(keys) != 1 || keys[0] != b.Key() {
		t.Fatalf("keys after delete %v", keys)
	}
	// Deleting again is a no-op.
	if err := s.Delete(a.Key()); err != nil {
		t.Fatal(err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("Open accepted empty dir")
	}
}

// TestConcurrentSaveLoadSameKey exercises the store the way a concurrent
// campaign does: many goroutines saving and loading one IPCTable key at
// once. Every load must observe either "absent" or a complete, valid
// table — never a torn or partially renamed file.
func TestConcurrentSaveLoadSameKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := table()
	proto := want.Identity
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := s.Save(table()); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
				got, ok, err := s.Load(proto)
				if err != nil {
					t.Errorf("Load: %v", err)
					return
				}
				if !ok {
					continue // another writer's rename not landed yet
				}
				for r := range want.IPC {
					for c := range want.IPC[r] {
						if got.IPC[r][c] != want.IPC[r][c] {
							t.Errorf("IPC[%d][%d] = %g, want %g", r, c, got.IPC[r][c], want.IPC[r][c])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	// The store directory must hold exactly the one key — no stranded
	// staging files counted as tables.
	keys, err := s.Keys()
	if err != nil || len(keys) != 1 || keys[0] != want.Key() {
		t.Fatalf("keys after concurrent saves: %v (err %v)", keys, err)
	}
}

func TestOpenReclaimsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "badco-c2-LRU-l1000-p3-s7-12345.tmp")
	fresh := filepath.Join(dir, "badco-c2-DIP-l1000-p3-s7-67890.tmp")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale staging file not reclaimed")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh staging file must survive (may belong to a live writer)")
	}
}

func TestUniverseDistinguishesKeys(t *testing.T) {
	a := table()
	b := table()
	b.Universe = 40 // same sample size drawn from a different population
	if a.Key() == b.Key() {
		t.Error("sampled table shares a key with a full-population table")
	}
	c := table()
	c.Universe = 80
	if b.Key() == c.Key() {
		t.Error("samples from different universes share a key")
	}
	// A sample larger than its universe is structurally invalid.
	bad := table()
	bad.Universe = 2 // population is 3
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted population above universe")
	}
	if b.Validate() != nil {
		t.Errorf("Validate rejected sampled table: %v", b.Validate())
	}
}

func TestSavedFilesAreWorldReadable(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	want := table()
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, want.Key()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	// Shared cache directories need group/other read bits (modulo umask).
	if info.Mode().Perm()&0o044 == 0 {
		t.Errorf("saved table mode %v lacks group/other read bits", info.Mode().Perm())
	}
}

// TestListPreservesIdentity is the satellite contract of the /cache
// endpoint: List must report the raw identity fields of every stored
// table — including source specs whose sanitized filenames cannot be
// mapped back — and surface corrupt files instead of hiding them.
func TestListPreservesIdentity(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	a := table()
	b := table()
	b.Policy = "DIP"
	b.Source = "dir:/traces/a b" // sanitization is lossy for this spec
	for _, tab := range []*IPCTable{a, b} {
		if err := s.Save(tab); err != nil {
			t.Fatal(err)
		}
	}
	// A file that is not a table at all.
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("List returned %d entries, want 3: %+v", len(entries), entries)
	}
	byKey := map[string]Entry{}
	for _, e := range entries {
		byKey[e.Key] = e
	}
	got, ok := byKey[b.Key()]
	if !ok {
		t.Fatalf("List missing key %s", b.Key())
	}
	if got.Corrupt {
		t.Fatal("valid table listed as corrupt")
	}
	// The raw identity survives, even though the filename sanitized it.
	if got.Table.Source != b.Source || got.Table.Policy != "DIP" ||
		got.Table.Cores != b.Cores || got.Table.Population != b.Population ||
		got.Table.Seed != b.Seed || got.Table.TraceLen != b.TraceLen {
		t.Errorf("listed identity %+v does not match saved table", got.Table)
	}
	if got.Table.IPC != nil {
		t.Error("List kept the IPC rows; identity-only listing expected")
	}
	if got.Bytes <= 0 || got.ModTime.IsZero() {
		t.Errorf("file metadata missing: bytes=%d mod=%v", got.Bytes, got.ModTime)
	}
	junk, ok := byKey["junk"]
	if !ok || !junk.Corrupt {
		t.Errorf("corrupt file not surfaced: %+v", junk)
	}
	// A decodable table stored under the wrong filename is corrupt too:
	// serving it under its filename identity would be a lie.
	wrong := table()
	wrong.Policy = "RND"
	data, _ := json.Marshal(wrong)
	if err := os.WriteFile(filepath.Join(dir, "badco-c9-LRU-l1-p1-s1.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, _ = s.List()
	found := false
	for _, e := range entries {
		if e.Key == "badco-c9-LRU-l1-p1-s1" {
			found = true
			if !e.Corrupt {
				t.Error("mismatched filename/content not marked corrupt")
			}
		}
	}
	if !found {
		t.Error("mismatched entry missing from listing")
	}
}

// sampledTable is table() with a sampling identity and CI/CV columns.
func sampledTable() *IPCTable {
	tab := table()
	tab.SampleUnit = 10000
	tab.SampleWindow = 1000
	tab.SampleWarmup = 1000
	tab.CI = [][]float64{{0.1, 0.2}, {0.1, 0.1}, {0.2, 0.2}}
	tab.CV = [][]float64{{0.3, 0.4}, {0.3, 0.3}, {0.4, 0.4}}
	return tab
}

func TestSampledKeyDistinguishesSpecs(t *testing.T) {
	exact := table()
	a := sampledTable()
	if exact.Key() == a.Key() {
		t.Error("sampled and exact tables share a key")
	}
	b := sampledTable()
	b.SampleWindow = 2000
	if a.Key() == b.Key() {
		t.Error("different windows share a key")
	}
	c := sampledTable()
	c.SampleWarm = 4000
	if a.Key() == c.Key() {
		t.Error("bounded and full warming share a key")
	}
}

func TestSampledTableRoundTrip(t *testing.T) {
	s, _ := Open(t.TempDir())
	want := sampledTable()
	want.SampleWarm = 4000
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	// An exact request must miss the sampled entry.
	if _, ok, err := s.Load(table().Identity); err != nil || ok {
		t.Fatalf("exact request served a sampled table: ok=%v err=%v", ok, err)
	}
	got, ok, err := s.Load(want.Identity)
	if err != nil || !ok {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	for i := range want.CI {
		for k := range want.CI[i] {
			if got.CI[i][k] != want.CI[i][k] || got.CV[i][k] != want.CV[i][k] {
				t.Fatalf("CI/CV[%d][%d] did not survive the round trip", i, k)
			}
		}
	}
	// The sampling identity survives a listing (and the file is not
	// flagged corrupt, i.e. the identity decode covers these fields).
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e.Key == want.Key() {
			found = true
			if e.Corrupt {
				t.Fatal("sampled table listed as corrupt")
			}
			if e.Table.SampleUnit != want.SampleUnit || e.Table.SampleWindow != want.SampleWindow ||
				e.Table.SampleWarmup != want.SampleWarmup || e.Table.SampleWarm != want.SampleWarm {
				t.Errorf("listed sampling identity %+v does not match saved table", e.Table)
			}
		}
	}
	if !found {
		t.Fatalf("List missing sampled key %s", want.Key())
	}
}

func TestWarmedTableListsClean(t *testing.T) {
	s, _ := Open(t.TempDir())
	tab := table()
	tab.Warmup = 5000
	if err := s.Save(tab); err != nil {
		t.Fatal(err)
	}
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Corrupt {
		t.Fatalf("warmed table listing: %+v", entries)
	}
	if entries[0].Table.Warmup != tab.Warmup {
		t.Errorf("listed warmup %d, want %d", entries[0].Table.Warmup, tab.Warmup)
	}
}

func TestValidateRejectsBadSampledTables(t *testing.T) {
	cases := []func(*IPCTable){
		func(t *IPCTable) { t.SampleWindow = 0 },                // unit without window
		func(t *IPCTable) { t.SampleWindow = 9500 },             // window+warmup > unit
		func(t *IPCTable) { t.SampleWarm = 9000 },               // warm > gap
		func(t *IPCTable) { t.SampleUnit = -1 },                 // negative
		func(t *IPCTable) { t.SampleUnit = 0; t.CI = nil },      // warmup without unit
		func(t *IPCTable) { t.CI = [][]float64{{1, 2}} },        // CI row mismatch
		func(t *IPCTable) { t.CV = [][]float64{{1}, {1}, {1}} }, // CV core mismatch
	}
	for i, mutate := range cases {
		tab := sampledTable()
		mutate(tab)
		if err := tab.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad sampled table", i)
		}
	}
	exact := table()
	exact.CI = [][]float64{{1, 2}, {1, 2}, {1, 2}}
	if err := exact.Validate(); err == nil {
		t.Error("Validate accepted CI column on an exact table")
	}
	if err := sampledTable().Validate(); err != nil {
		t.Errorf("Validate rejected good sampled table: %v", err)
	}
}

// TestWarmupKeyedSeparately pins that warmed tables live under their own
// cache keys while zero-warmup keys keep the historic format, so files
// persisted before warmup existed stay loadable.
func TestWarmupKeyedSeparately(t *testing.T) {
	a := table()
	if got, want := a.Key(), "badco-c2-LRU-l1000-p3-s7"; got != want {
		t.Fatalf("zero-warmup key %q, want historic %q", got, want)
	}
	b := table()
	b.Warmup = 500
	if a.Key() == b.Key() {
		t.Fatalf("warmed and unwarmed tables share key %q", a.Key())
	}

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load(b.Identity); err != nil || ok {
		t.Fatalf("warmed proto loaded the unwarmed table (ok=%v, err=%v)", ok, err)
	}
}

// TestUnstampedTableBytesStable pins the persisted format across the
// move of the identity fields into the embedded Identity: a table
// without a model fingerprint marshals to the bytes, and keys to the
// file name, that earlier versions wrote and read.
func TestUnstampedTableBytesStable(t *testing.T) {
	cases := []struct {
		tab       *IPCTable
		json, key string
	}{
		{table(),
			`{"simulator":"badco","cores":2,"policy":"LRU","trace_len":1000,"population":3,"seed":7,"universe":9,"source":"scaled:64:7","warmup":100,"ipc":[[1,2],[0.5,1.5],[2,2]]}`,
			"badco-c2-LRU-l1000-p3-s7-u9-w100-scaled_64_7-7b934576"},
		{sampledTable(),
			`{"simulator":"badco","cores":2,"policy":"LRU","trace_len":1000,"population":3,"seed":7,"universe":9,"source":"scaled:64:7","warmup":100,"sample_unit":10000,"sample_window":1000,"sample_warmup":1000,"ipc":[[1,2],[0.5,1.5],[2,2]],"ci":[[0.1,0.2],[0.1,0.1],[0.2,0.2]],"cv":[[0.3,0.4],[0.3,0.3],[0.4,0.4]]}`,
			"badco-c2-LRU-l1000-p3-s7-u9-w100-smpu10000d1000w1000-scaled_64_7-7b934576"},
	}
	for _, c := range cases {
		c.tab.Universe, c.tab.Source, c.tab.Warmup = 9, "scaled:64:7", 100
		b, err := json.Marshal(c.tab)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.json {
			t.Errorf("marshal:\n got %s\nwant %s", b, c.json)
		}
		if got := c.tab.Key(); got != c.key {
			t.Errorf("key %q, want %q", got, c.key)
		}
		// A fingerprint joins the identity but not the file name.
		c.tab.Model = "0123456789abcdef"
		if got := c.tab.Key(); got != c.key {
			t.Errorf("stamped key %q, want %q", got, c.key)
		}
	}
}

// TestModelMismatchIsMiss pins the stale-model policy at the store: a
// table stamped with another fingerprint, or with none (written before
// fingerprints existed), is a plain miss for a stamped request — under
// the same file name, which the recompute then overwrites.
func TestModelMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	legacy := table()
	if err := s.Save(legacy); err != nil {
		t.Fatal(err)
	}
	want := legacy.Identity
	want.Model = "0123456789abcdef"
	if _, ok, err := s.Load(want); ok || err != nil {
		t.Fatalf("unstamped table served to a stamped request: ok=%v err=%v", ok, err)
	}
	stamped := table()
	stamped.Model = want.Model
	if err := s.Save(stamped); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Load(want); !ok || err != nil || got.Model != want.Model {
		t.Fatalf("stamped table not served: ok=%v err=%v", ok, err)
	}
	other := want
	other.Model = "fedcba9876543210"
	if _, ok, _ := s.Load(other); ok {
		t.Fatal("table served across model fingerprints")
	}
	if keys, _ := s.Keys(); len(keys) != 1 {
		t.Fatalf("store holds %v, want the one overwritten file", keys)
	}
	entries, _ := s.List()
	if len(entries) != 1 || entries[0].Corrupt || entries[0].Table.Model != want.Model {
		t.Fatalf("listing %+v, want the stamped identity", entries)
	}
}
