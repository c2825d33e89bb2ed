package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// TestCatalogueColumns: every catalogue entry keeps at least two spaces
// between its name and its synopsis, however long the longest name is.
func TestCatalogueColumns(t *testing.T) {
	var b bytes.Buffer
	listExperiments(&b)
	entry := regexp.MustCompile(`^  \S+ {2,}\S`)
	n := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue
		}
		n++
		if !entry.MatchString(line) {
			t.Errorf("name runs into synopsis: %q", line)
		}
	}
	if n == 0 {
		t.Fatal("catalogue printed no entries")
	}
}

// FuzzParseSampleSpec checks the -sample parser: no panic; an accepted
// spec validates, fits its unit (Warmup + Window ≤ Unit, compared
// without overflow), and round-trips through its U:D:W:F form. Seeds
// live in testdata/fuzz/FuzzParseSampleSpec.
func FuzzParseSampleSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := parseSampleSpec(s)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%q: accepted an invalid spec: %v", s, err)
		}
		if spec.Enabled() && (spec.Window > spec.Unit || spec.Warmup > spec.Unit-spec.Window) {
			t.Fatalf("%q: accepted an overfull unit %+v", s, spec)
		}
		form := fmt.Sprintf("%d:%d:%d:%d", spec.Unit, spec.Window, spec.Warmup, spec.Warm)
		back, err := parseSampleSpec(form)
		if err != nil || back != spec {
			t.Fatalf("%q: round trip through %q gave %+v, %v", s, form, back, err)
		}
	})
}
