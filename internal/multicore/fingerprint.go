// Model fingerprint. A persisted IPC table is only as good as the model
// that computed it: after a change to the core, cache, predictor, uncore
// or BADCO model, a table from an older build is a stale answer, not a
// cache hit. Fingerprint condenses the model into one string that table
// identities carry, so such a table reads as a miss and is recomputed.
package multicore

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"mcbench/internal/badco"
	"mcbench/internal/cache"
	"mcbench/internal/cpu"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// modelInputs are the configurations every simulation is built from:
// the detailed core, the uncore per core count, and BADCO's calibration
// setup.
type modelInputs struct {
	core    cpu.Config
	uncores map[int]uncore.Config // by core count
	badco   badco.BuildConfig
}

// defaultModelInputs returns the configurations the simulators use.
func defaultModelInputs() modelInputs {
	in := modelInputs{core: cpu.DefaultConfig(), uncores: map[int]uncore.Config{}, badco: badco.DefaultBuildConfig()}
	for _, k := range []int{1, 2, 4, 8} {
		in.uncores[k] = uncore.ConfigFor(k, cache.LRU)
	}
	return in
}

// protocol names the measurement rules a table's numbers depend on
// beyond the model: a warmed run warms under the policy it measures.
// Changing a rule changes this line, so tables measured under the old
// rule read as misses.
const protocol = "warmup: per-policy"

// probeLen is the per-thread µop count of the fingerprint's probe run.
const probeLen = 2000

// probeBenchmarks are the probe's two threads: a memory-bound one on the
// detailed core and a compute-bound one on a BADCO machine.
var probeBenchmarks = [2]string{"mcf", "povray"}

var fingerprintOnce = sync.OnceValue(func() string { return fingerprint(defaultModelInputs()) })

// Fingerprint identifies the simulator model this binary computes with:
// an FNV-64 hash over the measurement protocol, the core, uncore and
// BADCO configurations, and the per-thread quota cycles of a short fixed
// probe that runs both engines over one shared uncore. The
// configurations catch a changed constant; the probe catches a changed
// mechanism (trace generation, predictor, cache, uncore timing, BADCO
// replay) that no constant records. It is computed once per process, on
// first use.
func Fingerprint() string { return fingerprintOnce() }

// fingerprint hashes the given model inputs and the probe run over them.
func fingerprint(in modelInputs) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\n%#v\n%#v\n%#v\n", protocol, in.core, in.uncores, in.badco)
	if cycles, err := probe(in); err != nil {
		fmt.Fprintf(h, "probe error: %v\n", err)
	} else {
		fmt.Fprintf(h, "%v\n", cycles)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// probe runs the probe benchmarks to probeLen µops each, one on the
// detailed core and one on a BADCO machine built for it, over the 2-core
// uncore, and returns each thread's quota cycle.
func probe(in modelInputs) ([]uint64, error) {
	var trs [2]*trace.Trace
	for i, name := range probeBenchmarks {
		p, ok := trace.ByName(name)
		if !ok {
			return nil, fmt.Errorf("multicore: no probe benchmark %q", name)
		}
		tr, err := trace.Generate(p, probeLen)
		if err != nil {
			return nil, err
		}
		trs[i] = tr
	}
	model, err := badco.Build(trs[1], in.badco)
	if err != nil {
		return nil, err
	}
	unc, err := uncore.New(in.uncores[2])
	if err != nil {
		return nil, err
	}
	core, err := cpu.New(0, in.core, trs[0], unc)
	if err != nil {
		return nil, err
	}
	ma, err := badco.NewMachine(1, model, unc)
	if err != nil {
		return nil, err
	}
	cross := make([]uint64, 2)
	err = schedule(context.Background(), []stepper{core, ma}, []uint64{probeLen, probeLen}, never, cross)
	return cross, err
}
