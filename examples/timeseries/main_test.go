package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestSchemesAgreeOnEventCounts: the three schemes see the same 60 events
// per phase: the scalar profile's count, the solve phase's counts summed
// over the time-series blocks, and each phase's histogram bins, under- and
// overflow included.
func TestSchemesAgreeOnEventCounts(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(out.String(), "== ")
	if len(sections) != 4 {
		t.Fatalf("want three scheme sections, got:\n%s", out.String())
	}
	// a section is its title, the scheme, a blank line, the table header,
	// then the rows up to the next blank line
	rows := func(section string) [][]string {
		var rs [][]string
		for _, line := range strings.Split(section, "\n")[4:] {
			if line == "" {
				break
			}
			rs = append(rs, strings.Fields(line))
		}
		return rs
	}
	atoi := func(s string) int {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	scalar := map[string]int{}
	for _, f := range rows(sections[1]) {
		scalar[f[0]] = atoi(f[1])
	}
	series := map[string]int{}
	for _, f := range rows(sections[2]) {
		series[f[0]] += atoi(f[2])
	}
	hist := map[string]int{}
	for _, f := range rows(sections[3]) {
		bins := strings.SplitN(f[1], ":", 3)[2] // lo:hi:b0,b1,...|under|over
		for _, n := range strings.FieldsFunc(bins, func(r rune) bool { return r == ',' || r == '|' }) {
			hist[f[0]] += atoi(n)
		}
	}

	for _, phase := range []string{"assemble", "solve", "update"} {
		if scalar[phase] != 60 || hist[phase] != 60 {
			t.Errorf("%s: scalar count %d, histogram count %d, want 60 each", phase, scalar[phase], hist[phase])
		}
	}
	if len(series) != 1 || series["solve"] != 60 {
		t.Errorf("time-series counts %v, want solve 60", series)
	}
}
