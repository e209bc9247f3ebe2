package main

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"

	"ppscan/internal/lint"
)

func TestListExitsClean(t *testing.T) {
	if code := run([]string{"-list"}, io.Discard); code != 0 {
		t.Fatalf("scanlint -list exit = %d, want 0", code)
	}
}

// TestListPrintsAllAnalyzers pins what cmd/docscheck reads: the flush-left
// lines of -list name exactly the analyzers of lint.All(), in order.
func TestListPrintsAllAnalyzers(t *testing.T) {
	var out bytes.Buffer
	run([]string{"-list"}, &out)
	var got, want []string
	for _, line := range strings.Split(out.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, " ") {
			got = append(got, strings.Fields(line)[0])
		}
	}
	for _, a := range lint.All() {
		want = append(want, a.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("-list printed %v, lint.All() is %v", got, want)
	}
}
