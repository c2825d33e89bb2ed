package main

import (
	"math/rand"

	"mcbench/internal/trace"
)

// The co-schedules every workload simulates come from the seed alone;
// the program receives them as explicit workload lists.

// designSeed fixes which benchmarks are co-scheduled together. The run
// seed then orders the co-schedules and assigns their benchmarks to
// cores, so every seed simulates the same mixes — the population's cost
// does not swing with the seed — while every simulated cycle count
// changes with it.
const designSeed = 20130421

// pairs returns every unordered 2-core pair of the suite, repeats
// included (22·23/2 = 253), in a seeded order and core assignment.
func pairs(seed int64) [][]string {
	names := trace.SuiteNames()
	var out [][]string
	for i := range names {
		for j := i; j < len(names); j++ {
			out = append(out, []string{names[i], names[j]})
		}
	}
	return arrange(seed, out)
}

// evenPairs is the fixed half of pairs whose two suite indices have the
// same parity (132 of 253), in a seeded order and core assignment.
func evenPairs(seed int64) [][]string {
	names := trace.SuiteNames()
	var out [][]string
	for i := range names {
		for j := i; j < len(names); j += 2 {
			out = append(out, []string{names[i], names[j]})
		}
	}
	return arrange(seed, out)
}

// groups returns n co-schedules of the given core count cut from
// consecutive permutations of the suite, so that every benchmark runs
// equally often in each stretch of lcm(22, cores) threads (every 11
// co-schedules at 4 cores), in a seeded order and core assignment. A
// uniform draw of mixes would make the population's cost swing: the
// slowest thread sets how long all of them run.
func groups(seed int64, cores, n int) [][]string {
	names := trace.SuiteNames()
	design := rand.New(rand.NewSource(designSeed))
	var stream []string
	for len(stream) < cores*n {
		for _, k := range design.Perm(len(names)) {
			stream = append(stream, names[k])
		}
	}
	out := make([][]string, n)
	for i := range out {
		out[i] = append([]string(nil), stream[cores*i:cores*(i+1)]...)
	}
	return arrange(seed, out)
}

// arrange shuffles each co-schedule's core assignment and the
// co-schedules' order with the run seed.
func arrange(seed int64, cos [][]string) [][]string {
	rng := rand.New(rand.NewSource(seed))
	for _, c := range cos {
		rng.Shuffle(len(c), func(a, b int) { c[a], c[b] = c[b], c[a] })
	}
	rng.Shuffle(len(cos), func(a, b int) { cos[a], cos[b] = cos[b], cos[a] })
	return cos
}
