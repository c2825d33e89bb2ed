package results

import (
	"context"
	"testing"

	"mcbench/internal/cache"
	"mcbench/internal/multicore"
	"mcbench/internal/trace"
)

// TestCheckpointPersistRoundTrip captures a real mid-run checkpoint,
// persists it through the store, loads it back in and resumes: the
// resumed run must be bit-identical to the uninterrupted one. This pins
// the whole persistence path — in particular that every field reachable
// from multicore.Checkpoint survives gob (which silently drops
// unexported struct fields).
func TestCheckpointPersistRoundTrip(t *testing.T) {
	ctx := context.Background()
	trs := multicore.TraceMap(trace.GenerateSuite(12000))
	w := multicore.Workload{"mcf", "soplex"}
	const quota = 6000

	spec := multicore.Spec{Policy: cache.DRRIP, Quota: quota}
	uninterrupted, err := multicore.Run(ctx, w, spec, trs, nil)
	if err != nil {
		t.Fatal(err)
	}

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const name = "sweep:drrip/2c" // exercises sanitization too
	if _, err := multicore.Checkpointed(ctx, w, spec, trs, nil, 1500, func(cp *multicore.Checkpoint) error {
		return s.SaveCheckpoint(name, cp)
	}); err != nil {
		t.Fatal(err)
	}

	cp, ok, err := s.LoadCheckpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("checkpoint not found after save")
	}
	resumed, err := multicore.Resume(ctx, cp, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Instructions != uninterrupted.Instructions {
		t.Fatalf("instructions %d, want %d", resumed.Instructions, uninterrupted.Instructions)
	}
	for i := range uninterrupted.Cycles {
		if resumed.Cycles[i] != uninterrupted.Cycles[i] {
			t.Errorf("core %d: resumed at %d cycles, uninterrupted %d", i, resumed.Cycles[i], uninterrupted.Cycles[i])
		}
		if resumed.IPC[i] != uninterrupted.IPC[i] {
			t.Errorf("core %d: resumed IPC %v, uninterrupted %v", i, resumed.IPC[i], uninterrupted.IPC[i])
		}
	}

	names, err := s.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != sanitize(name) {
		t.Fatalf("Checkpoints() = %v, want [%s]", names, sanitize(name))
	}
	if err := s.DeleteCheckpoint(name); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.LoadCheckpoint(name); ok {
		t.Fatal("checkpoint still loadable after delete")
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
	if _, ok, err := s.Load(*b); err != nil || ok {
		t.Fatalf("warmed proto loaded the unwarmed table (ok=%v, err=%v)", ok, err)
	}
}

// TestCheckpointListSkipsTables pins that the two kinds of files share
// one directory without polluting each other's listings.
func TestCheckpointListSkipsTables(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(table()); err != nil {
		t.Fatal(err)
	}
	names, err := s.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("Checkpoints() sees JSON tables: %v", names)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("Keys() = %v, want one table", keys)
	}
}
