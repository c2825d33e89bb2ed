package main

import (
	"bytes"
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
