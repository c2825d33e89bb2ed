package bench

import (
	"strings"
	"testing"
)

// FuzzParse checks the source spec parser behind -suite and the public
// suite registry: no panic, and an accepted spec names a source whose
// Name() Parse accepts again, naming the same source. dir: specs are
// skipped, so the fuzzer never walks the filesystem; FuzzRead in
// internal/trace covers the bytes a dir source reads. Seeds live in
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		if strings.HasPrefix(spec, "dir:") {
			return
		}
		src, err := Parse(spec)
		if err != nil {
			return
		}
		name := src.Name()
		if strings.HasPrefix(spec, "scaled:") && (!strings.HasPrefix(name, "scaled:") || strings.Count(name, ":") != 2) {
			t.Fatalf("%q: scaled spec named %q, want scaled:B:SEED", spec, name)
		}
		back, err := Parse(name)
		if err != nil {
			t.Fatalf("%q: its name %q does not parse: %v", spec, name, err)
		}
		if back.Name() != name {
			t.Fatalf("%q: name %q parses to %q", spec, name, back.Name())
		}
	})
}
