package multicore

import (
	"errors"
	"reflect"
	"testing"

	"mcbench/internal/cache"
)

// catalog is a fixed Catalog: names on offer and one trace length.
type catalog struct {
	names []string
	len   int
}

func (c catalog) Names() []string { return c.names }
func (c catalog) Len() int        { return c.len }

func TestBatchResolve(t *testing.T) {
	cat := catalog{names: []string{"mcf", "gcc", "povray"}, len: 1000}
	cases := []struct {
		name  string
		batch Batch
		cat   Catalog
		want  []Workload // nil: Resolve must fail
		names []string
		err   error // the sentinel a failure wraps, if any
	}{
		{name: "kept as given, default policy",
			batch: Batch{Workloads: []Workload{{"mcf", "gcc"}, {"povray", "mcf"}}},
			want:  []Workload{{"mcf", "gcc"}, {"povray", "mcf"}}, names: []string{"mcf", "gcc", "povray"}},
		{name: "replication",
			batch: Batch{Workloads: []Workload{{"gcc"}, {"mcf", "mcf", "gcc"}}, Cores: 3},
			want:  []Workload{{"gcc", "gcc", "gcc"}, {"mcf", "mcf", "gcc"}}, names: []string{"gcc", "mcf"}},
		{name: "no workloads", batch: Batch{Cores: 2}, want: []Workload{}},
		{name: "cores mismatch", batch: Batch{Workloads: []Workload{{"mcf", "gcc"}}, Cores: 4}},
		{name: "negative cores", batch: Batch{Workloads: []Workload{{"mcf"}}, Cores: -1}},
		{name: "empty workload", batch: Batch{Workloads: []Workload{{"mcf"}, {}}}},
		{name: "unknown name", batch: Batch{Workloads: []Workload{{"mcf", "nosuch"}}}, err: ErrUnknownBenchmark},
		{name: "zero quota resolves to the trace length",
			batch: Batch{Workloads: []Workload{{"mcf"}}, Spec: Spec{Warmup: 1000}},
			want:  []Workload{{"mcf"}}, names: []string{"mcf"}},
		{name: "warmup beyond the resolved quota",
			batch: Batch{Workloads: []Workload{{"mcf"}}, Spec: Spec{Warmup: 1001}}},
		{name: "sampling unit beyond the resolved quota",
			batch: Batch{Workloads: []Workload{{"mcf"}}, Spec: Spec{Sampling: SamplingSpec{Unit: 2000, Window: 100}}}},
		{name: "non-positive trace length",
			batch: Batch{Workloads: []Workload{{"mcf"}}}, cat: catalog{names: cat.names}},
		{name: "unknown policy",
			batch: Batch{Workloads: []Workload{{"mcf"}}, Spec: Spec{Policy: "NOPE"}}},
		{name: "unknown engine",
			batch: Batch{Workloads: []Workload{{"mcf"}}, Spec: Spec{Engine: 7}}},
	}
	for _, c := range cases {
		in := c.cat
		if in == nil {
			in = cat
		}
		got, names, err := c.batch.Resolve(in)
		if c.want == nil {
			if err == nil {
				t.Errorf("%s: accepted %+v", c.name, got)
			} else if c.err != nil && !errors.Is(err, c.err) {
				t.Errorf("%s: error %v does not wrap %v", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got.Workloads, c.want) || !reflect.DeepEqual(names, c.names) {
			t.Errorf("%s: workloads %v names %v, want %v %v", c.name, got.Workloads, names, c.want, c.names)
		}
		for i, w := range got.Workloads {
			if &w[0] == &c.batch.Workloads[i][0] {
				t.Errorf("%s: workload %d aliases the caller's", c.name, i)
			}
		}
		if got.Spec.Policy != cache.LRU {
			t.Errorf("%s: empty policy resolved to %q, want LRU", c.name, got.Spec.Policy)
		}
		// The quota stays as given: Run resolves a zero quota itself.
		if got.Spec.Quota != c.batch.Spec.Quota {
			t.Errorf("%s: quota %d, given %d", c.name, got.Spec.Quota, c.batch.Spec.Quota)
		}
	}
}

func TestEngineNames(t *testing.T) {
	for _, e := range []Engine{Detailed, BADCO} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	if e, err := ParseEngine(""); err != nil || e != Detailed {
		t.Errorf("ParseEngine(\"\") = %v, %v; want Detailed", e, err)
	}
	if _, err := ParseEngine("zesto"); err == nil {
		t.Error("unknown engine name accepted")
	}
	if Detailed.String() != "detailed" || BADCO.String() != "badco" {
		t.Errorf("engine names %q, %q", Detailed, BADCO)
	}
}
