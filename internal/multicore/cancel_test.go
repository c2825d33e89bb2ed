package multicore

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mcbench/internal/cache"
)

// TestDetailedCancelMidRun proves a single long simulation — both the
// chunked single-core path and the batched multi-core path — aborts
// promptly on cancellation instead of running to its quota.
func TestDetailedCancelMidRun(t *testing.T) {
	trs := traces(t)
	for _, w := range []Workload{{"mcf"}, {"mcf", "soplex"}} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		// A quota far beyond the trace length: uncancelled this would
		// re-run the trace thousands of times.
		_, err := detailed(ctx, w, trs, cache.LRU, uint64(testLen)*5000)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: error = %v, want context.Canceled", w, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("%v: cancellation took %v", w, elapsed)
		}
	}
}

// TestSweepDetailedCancel: cancelling mid-sweep returns promptly, stops
// dispatching, and leaks no goroutines.
func TestSweepDetailedCancel(t *testing.T) {
	trs := traces(t)
	var ws []Workload
	for i := 0; i < 64; i++ {
		ws = append(ws, Workload{"mcf", "soplex"})
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if _, err := SweepDetailed(ctx, ws, trs, cache.LRU, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline+2 {
		t.Errorf("goroutines did not drain: %d, baseline %d", g, baseline)
	}
}

// TestRunBoundedPreCancelled: a dead context dispatches nothing.
func TestRunBoundedPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := RunBounded(ctx, 8, func(int) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v", err)
	}
	if ran {
		t.Error("fn ran under a pre-cancelled context")
	}
}
