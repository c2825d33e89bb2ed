package experiments

import (
	"math"
	"testing"

	"mcbench/internal/multicore"
)

// warmupConfig is a deliberately tiny campaign: the warmed sweeps run
// every workload through warmup once per policy, so the test pins exact
// bits, not statistics.
func warmupConfig() Config {
	cfg := QuickConfig()
	cfg.TraceLen = 6000
	cfg.PopLimit = 5
	cfg.DetailedCount = 5
	cfg.Warmup = 1500
	return cfg
}

// TestDetailedIPCWarmup and TestBadcoIPCWarmup pin every warmed lab
// table, for every case-study policy, to per-workload multicore.Run
// calls that warm under the measured policy: the lab has no warmup
// protocol of its own, on either engine.
func TestDetailedIPCWarmup(t *testing.T) { checkWarmedTables(t, multicore.Detailed) }

func TestBadcoIPCWarmup(t *testing.T) { checkWarmedTables(t, multicore.BADCO) }

// checkWarmedTables compares the engine's warmed tables with Run, bit
// for bit. Rows follow the detailed sample or the whole population.
func checkWarmedTables(t *testing.T, engine multicore.Engine) {
	l := NewLab(warmupConfig())
	pop := l.Population(2)
	models := must(l.Models(tctx))
	table, rows := l.BadcoIPC, make([]int, pop.Size())
	for i := range rows {
		rows[i] = i
	}
	if engine == multicore.Detailed {
		table, rows = l.DetailedIPC, l.DetSample(2)
	}
	for _, p := range Policies() {
		got := must(table(tctx, 2, p))
		if len(got) != len(rows) {
			t.Fatalf("%s: %d rows, want %d", p, len(got), len(rows))
		}
		spec := multicore.Spec{Engine: engine, Policy: p, Warmup: uint64(l.Config().Warmup)}
		for i, wi := range rows {
			want := must(multicore.Run(tctx, l.toMulticore(pop.Workloads[wi]), spec, l.Provider(), models))
			for k := range got[i] {
				if math.Float64bits(got[i][k]) != math.Float64bits(want.IPC[k]) {
					t.Errorf("%s: workload %d core %d: IPC %v, want %v", p, i, k, got[i][k], want.IPC[k])
				}
			}
		}
	}
}
