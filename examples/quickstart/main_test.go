package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCompactProfileCounts: the compact profile counts Listing 1's calls:
// foo twice and bar once in each of four iterations, and 20 snapshots
// outside any function.
func TestCompactProfileCounts(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	_, compact, ok := strings.Cut(out.String(), "compact profile")
	if !ok {
		t.Fatalf("no compact profile in:\n%s", out.String())
	}
	counts := map[string]string{}
	for _, line := range strings.Split(compact, "\n")[2:] {
		switch f := strings.Fields(line); len(f) {
		case 3:
			counts[f[0]] = f[1]
		case 2:
			counts[""] = f[0]
		}
	}
	want := map[string]string{"foo": "8", "bar": "4", "": "20"}
	for fn, n := range want {
		if counts[fn] != n {
			t.Errorf("function %q: count %q, want %s (compact profile:%s)", fn, counts[fn], n, compact)
		}
	}
}
