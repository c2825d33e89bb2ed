package serve

// Unit tests of the job manager: queue bounds, dedup bookkeeping,
// queued-job cancellation, drain semantics.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// blockingManager runs jobs that wait on release (or their context).
func blockingManager(workers, depth int, release chan struct{}) *manager {
	return newManager(workers, depth, 0, 0, func(ctx context.Context, j *job) (*JobResult, error) {
		select {
		case <-release:
			return &JobResult{ID: j.id, Kind: j.req.Kind}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
}

func expReq(name string) SubmitRequest {
	return SubmitRequest{Kind: KindExperiment, Experiment: &ExperimentRequest{Name: name}}
}

func TestManagerQueueBound(t *testing.T) {
	release := make(chan struct{})
	m := blockingManager(1, 2, release)
	defer func() { close(release); m.drain() }()

	// One running + two queued fit; the next submission is rejected.
	first, _, err := m.submit(expReq("e"), "a")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, StateRunning) // queue is empty again
	for i := 1; i < 4; i++ {
		_, deduped, err := m.submit(expReq("e"), string(rune('a'+i)))
		if i < 3 {
			if err != nil || deduped {
				t.Fatalf("submit %d: deduped=%v err=%v", i, deduped, err)
			}
			continue
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("submit %d: err=%v, want ErrQueueFull", i, err)
		}
	}
	// A rejected submission must not leak into the dedup index: the same
	// key resubmitted after capacity frees must not coalesce onto a
	// phantom.
	if _, ok := m.inflight["d"]; ok {
		t.Fatal("rejected submission left an inflight entry")
	}
}

func TestManagerCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	m := blockingManager(1, 4, release)
	defer func() { close(release); m.drain() }()

	running, _, err := m.submit(expReq("run"), "run")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked it up so the next job stays queued.
	waitState(t, running, StateRunning)
	queued, _, err := m.submit(expReq("wait"), "wait")
	if err != nil {
		t.Fatal(err)
	}
	st, ok := m.cancelJob(queued.id)
	if !ok || st.State != StateCanceled {
		t.Fatalf("cancel queued: ok=%v state=%s", ok, st.State)
	}
	// Its key is free again: a resubmission creates a fresh job.
	j2, deduped, err := m.submit(expReq("wait"), "wait")
	if err != nil || deduped || j2.id == queued.id {
		t.Fatalf("resubmit after cancel: id=%s deduped=%v err=%v", j2.id, deduped, err)
	}
	// Unknown ids are reported.
	if _, ok := m.cancelJob("nope"); ok {
		t.Error("cancel of unknown id succeeded")
	}
}

func TestManagerDrainRejectsAndSettles(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	m := blockingManager(1, 4, release)

	running, _, _ := m.submit(expReq("run"), "run")
	waitState(t, running, StateRunning)
	queued, _, _ := m.submit(expReq("wait"), "wait")

	done := make(chan struct{})
	go func() { m.drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not finish")
	}
	if st := running.status(); st.State != StateCanceled {
		t.Errorf("running job after drain: %s", st.State)
	}
	if st := queued.status(); st.State != StateCanceled {
		t.Errorf("queued job after drain: %s", st.State)
	}
	if _, _, err := m.submit(expReq("late"), "late"); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit err = %v, want ErrDraining", err)
	}
	stats := m.snapshotStats()
	if stats.Canceled != 2 || stats.Queued != 0 || stats.Running != 0 {
		t.Errorf("post-drain stats %+v", stats)
	}
}

func TestManagerEventCursor(t *testing.T) {
	release := make(chan struct{})
	m := blockingManager(1, 4, release)
	j, _, _ := m.submit(expReq("e"), "k")
	waitState(t, j, StateRunning)
	evs, _, state := j.eventsAfter(0)
	if state.Terminal() || len(evs) < 2 {
		t.Fatalf("pre-finish events: %d, state=%v", len(evs), state)
	}
	// Sequence numbers are dense from 1.
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	// A cursor past the log returns nothing but still reports state.
	if evs, _, _ := j.eventsAfter(100); len(evs) != 0 {
		t.Fatalf("cursor past end returned %d events", len(evs))
	}
	close(release)
	waitState(t, j, StateDone)
	evs, _, state = j.eventsAfter(0)
	if !state.Terminal() || evs[len(evs)-1].Type != "done" {
		t.Fatalf("final log %+v state=%v", evs, state)
	}
	m.drain()
}

// TestCancelFreesQueueSlot pins the backlog semantics: cancelling a
// queued job frees its queue slot immediately, without waiting for a
// worker to dequeue the tombstone — new submissions must not see 503
// while the backlog is actually empty.
func TestCancelFreesQueueSlot(t *testing.T) {
	release := make(chan struct{})
	m := blockingManager(1, 1, release)
	defer func() { close(release); m.drain() }()

	running, _, err := m.submit(expReq("r"), "r")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, _, err := m.submit(expReq("q"), "q")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.submit(expReq("x"), "x"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit err = %v, want ErrQueueFull", err)
	}
	if _, ok := m.cancelJob(queued.id); !ok {
		t.Fatal("cancel failed")
	}
	// The worker is still busy with the running job; only the cancel
	// freed capacity.
	j, _, err := m.submit(expReq("x"), "x")
	if err != nil {
		t.Fatalf("slot not freed by cancel: %v", err)
	}
	if j.status().State != StateQueued {
		t.Fatalf("replacement job state %s", j.status().State)
	}
}

// TestManagerSettledRetention pins the retention cap: a long-running
// manager holds only the newest `keep` settled jobs, so sustained
// traffic cannot grow the job table without bound.
func TestManagerSettledRetention(t *testing.T) {
	m := newManager(1, 8, 2, 0, func(ctx context.Context, j *job) (*JobResult, error) {
		return &JobResult{ID: j.id, Kind: j.req.Kind}, nil
	})
	defer m.drain()
	var ids []string
	for i := 0; i < 5; i++ {
		j, _, err := m.submit(expReq("e"), fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
		ids = append(ids, j.id)
	}
	waitSettled(t, m, 5)
	for _, old := range ids[:3] {
		if _, ok := m.get(old); ok {
			t.Errorf("settled job %s not evicted beyond the cap", old)
		}
	}
	list := m.list()
	if len(list) != 2 || list[0].ID != ids[3] || list[1].ID != ids[4] {
		t.Fatalf("retained jobs %+v, want the newest two (%v)", list, ids[3:])
	}
	stats := m.snapshotStats()
	if stats.Done != 5 {
		t.Errorf("eviction corrupted counters: %+v", stats)
	}
}

func waitState(t *testing.T, j *job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.status().State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (state %s)", j.id, want, j.status().State)
}

// waitSettled waits until the manager has retired n jobs. A job's
// terminal state is published just before the manager retires it
// (finishFrom, then settle), so a test that saw the terminal state and
// then reads the counters or the retained-job list must wait for the
// retirement too.
func waitSettled(t *testing.T, m *manager, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := m.snapshotStats()
		if st.Done+st.Failed+st.Canceled >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs retired, want %d", st.Done+st.Failed+st.Canceled, n)
		}
		time.Sleep(time.Millisecond)
	}
}
