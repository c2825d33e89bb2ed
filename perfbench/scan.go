package main

import (
	"context"
	"fmt"

	"mcbench/internal/cache"
	"mcbench/internal/multicore"
	"mcbench/internal/trace"
)

// runScan re-drives balanced co-schedules of both engines at 2, 4 and 8
// cores on the traced loop and splits the host cost per quota µop into
// executed µops per quota µop (multicore.exec_per_quota) and host cost
// per executed µop. It backs the core-count table of REPORT.md.
func runScan(ctx context.Context, seed int64) error {
	clock := measureClock()
	setup := &slice{}
	traces, err := setup.generate(trace.SuiteNames(), popTraceLen)
	if err != nil {
		return err
	}
	models, err := setup.build(traces)
	if err != nil {
		return err
	}
	fmt.Printf("%-9s %5s %5s %14s %14s %14s %12s\n", "engine", "cores", "mixes", "ns/quota-uop", "exec/quota", "ns/exec-uop", "uncore %")
	// Mixes per cell: multiples of 11 keep every cell balanced, and fewer
	// mixes where each costs more keep the cells' host time comparable.
	mixes := map[string]map[int]int{
		"badco":    {2: 88, 4: 44, 8: 22},
		"detailed": {2: 22, 4: 11, 8: 11},
	}
	for _, engine := range []string{"badco", "detailed"} {
		for _, cores := range []int{2, 4, 8} {
			n := mixes[engine][cores]
			pop := groups(seed, cores, n)
			var lib []multicore.Result
			if engine == "badco" {
				lib, err = multicore.SweepApproximate(ctx, asWorkloads(pop), models, cache.LRU, popTraceLen)
			} else {
				lib, err = multicore.SweepDetailed(ctx, asWorkloads(pop), multicore.TraceMap(traces), cache.LRU, popTraceLen)
			}
			if err != nil {
				return err
			}
			specs := make([]spec, len(pop))
			for i, w := range pop {
				specs[i] = spec{names: w, engine: engine, quota: popTraceLen}
			}
			s := &slice{workload: fmt.Sprintf("%s-%dc", engine, cores)}
			s.redrive(ctx, specs, traces, models, firstCycles(fromMulticore(lib)), clock)
			if s.failed > 0 {
				return fmt.Errorf("%s: %d co-schedules failed or differ from the library", s.workload, s.failed)
			}
			t := s.totals()
			c := t.counts
			fmt.Printf("%-9s %5d %5d %14.1f %14.2f %14.1f %12.1f\n", engine, cores, n,
				t.rootNS/float64(c.QuotaUops), float64(c.ExecUops)/float64(c.QuotaUops),
				t.rootNS/float64(c.ExecUops), 100*t.busy[layerUncore]/t.rootNS)
		}
	}
	return nil
}
