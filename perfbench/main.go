// Command perfbench is the repository's benchmark. It runs one named
// workload from a workload seed, checks every simulation result, and
// prints one JSON object as the last line of standard output: the
// end-to-end metrics of an untraced run, or with -trace 1 the per-layer
// metrics of a traced run.
//
//	go build -o perfbench . && ./perfbench -workload badco-pop -seed 1 -seconds 10 -trace 0
//
// run.py builds and runs it from the repository root; BENCHMARK.json
// at the root lists the workloads and metrics, and REPORT.md in this
// directory records the first numbers and the traced layer split.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
}

// outcome is what a workload run returns: its gated metrics, the
// operations it attempted and failed, and the extra figures printed
// beside them.
type outcome struct {
	attempted, failed int
	// mismatch is set when a stored reference digest exists for the
	// seed and the run's digest differs from it; the digestOps
	// operations it covers then count as failed.
	mismatch  bool
	digestOps int
	metrics   map[string]metric
	// notes are printed on the human-readable lines before the result.
	notes []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "minimum length of the measured phase, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	spans := flag.String("spans", "", "traced run: file the spans are written to at the end (default none)")
	record := flag.Bool("record", false, "print the run's result digest (for the reference table)")
	scan := flag.Bool("scan", false, "print the 2/4/8-core cost split of REPORT.md and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	if *scan {
		if err := runScan(context.Background(), *seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: scan: %v\n", err)
			return 1
		}
		return 0
	}

	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %v, -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	ctx := context.Background()

	var out *outcome
	var err error
	if *traced == 1 {
		out, err = runTraced(ctx, w.name, cfg, *spans)
	} else {
		var digest uint64
		out, digest, err = w.run(ctx, cfg)
		if err == nil {
			if out.mismatch = !referenceMatches(w.name, cfg.seed, digest); out.mismatch {
				out.failed += out.digestOps
			}
			out.set("peak_rss_mb", peakRSSMB(), "MB")
			if *record {
				fmt.Printf("digest %s seed %d: %#016x\n", w.name, cfg.seed, digest)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if out.mismatch {
		fmt.Println("digest: does not match the stored reference for this seed")
	}
	fmt.Printf("failed_frac %.6f (%d of %d operations)\n", float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted)
	line, err := json.Marshal(result{
		Correct:   out.failed == 0 && !out.mismatch,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
