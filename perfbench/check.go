package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"mcbench/internal/cpu"
)

// commitWidth bounds every per-thread IPC: no core model commits more
// µops per cycle than the detailed core's commit width.
var commitWidth = float64(cpu.DefaultConfig().CommitWidth)

// checkRun validates one simulation result: one IPC and one quota
// cycle count per thread, every IPC finite and in (0, commit width],
// every cycle count positive.
func checkRun(threads int, ipc []float64, cycles []uint64) error {
	if len(ipc) != threads || len(cycles) != threads {
		return fmt.Errorf("%d IPCs and %d cycle counts for %d threads", len(ipc), len(cycles), threads)
	}
	for i, v := range ipc {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 || v > commitWidth {
			return fmt.Errorf("thread %d IPC %v outside (0, %v]", i, v, commitWidth)
		}
		if cycles[i] == 0 {
			return fmt.Errorf("thread %d reached its quota at cycle 0", i)
		}
	}
	return nil
}

// sameCycles reports whether two runs of one co-schedule agree bit for
// bit on every thread's quota cycles.
func sameCycles(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// digest folds the per-thread quota cycles of a workload's reference
// operations, in order, into one 64-bit FNV-1a value.
func digest(cycles [][]uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, cs := range cycles {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(cs)))
		h.Write(buf[:])
		for _, c := range cs {
			binary.LittleEndian.PutUint64(buf[:], c)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// referenceMatches reports whether the digest equals the stored
// reference for (workload, seed). Seeds without a stored reference
// match trivially; their results are still checked by checkRun and
// for repeatability.
func referenceMatches(workload string, seed int64, d uint64) bool {
	want, ok := references[workload][seed]
	return !ok || want == d
}
