// Command cali-compare compares two profile datasets under the same
// aggregation query and reports per-group changes — the regression-check
// workflow over .cali profiles (run A = baseline, run B = candidate).
//
// Usage:
//
//	cali-compare -q "AGGREGATE sum(time.duration) GROUP BY kernel" \
//	    -metric sum#time.duration baseline/*.cali -- candidate/*.cali
//
// Output: one row per group with the baseline value, candidate value,
// and relative change, ordered by absolute change.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"caligo/calql"
	"caligo/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cali-compare:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cali-compare", flag.ContinueOnError)
	queryText := fs.String("q", "", "aggregation query applied to both datasets (required)")
	metric := fs.String("metric", "", "result column to compare (required, e.g. sum#time.duration)")
	threshold := fs.Float64("threshold", 0, "only report groups changing by at least this percent")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *queryText == "" || *metric == "" {
		return fmt.Errorf("-q and -metric are required")
	}
	baseline, candidate, err := splitFileSets(fs.Args())
	if err != nil {
		return err
	}

	base, err := groupValues(*queryText, *metric, baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	cand, err := groupValues(*queryText, *metric, candidate)
	if err != nil {
		return fmt.Errorf("candidate: %w", err)
	}

	type diff struct {
		group      string
		base, cand float64
		pct        float64 // relative change in percent; ±Inf for new/gone
	}
	var diffs []diff
	seen := map[string]bool{}
	for g, b := range base {
		seen[g] = true
		c, ok := cand[g]
		d := diff{group: g, base: b, cand: c}
		switch {
		case !ok || c == 0 && b == 0:
			d.pct = math.Inf(-1) // group disappeared
			if !ok {
				d.cand = math.NaN()
			}
		case b == 0:
			d.pct = math.Inf(1)
		default:
			d.pct = (c - b) / b * 100
		}
		diffs = append(diffs, d)
	}
	for g, c := range cand {
		if !seen[g] {
			diffs = append(diffs, diff{group: g, base: math.NaN(), cand: c, pct: math.Inf(1)})
		}
	}
	sort.Slice(diffs, func(i, j int) bool {
		ai, aj := math.Abs(diffs[i].pct), math.Abs(diffs[j].pct)
		if ai != aj {
			return ai > aj
		}
		return diffs[i].group < diffs[j].group
	})

	fmt.Fprintf(w, "%-40s %14s %14s %10s\n", "group", "baseline", "candidate", "change")
	reported := 0
	for _, d := range diffs {
		if !math.IsInf(d.pct, 0) && math.Abs(d.pct) < *threshold {
			continue
		}
		change := fmt.Sprintf("%+.1f%%", d.pct)
		switch {
		case math.IsNaN(d.cand):
			change = "gone"
		case math.IsNaN(d.base):
			change = "new"
		case math.IsInf(d.pct, 1):
			change = "new"
		case math.IsInf(d.pct, -1):
			change = "gone"
		}
		fmt.Fprintf(w, "%-40s %14s %14s %10s\n",
			d.group, fmtVal(d.base), fmtVal(d.cand), change)
		reported++
	}
	fmt.Fprintf(w, "\n%d of %d groups reported (threshold %.1f%%)\n",
		reported, len(diffs), *threshold)
	return nil
}

func fmtVal(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.6g", v)
}

// splitFileSets splits "base... -- cand..." argument lists.
func splitFileSets(args []string) (baseline, candidate []string, err error) {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		return nil, nil, fmt.Errorf("usage: cali-compare -q ... -metric ... baseline.cali [...] -- candidate.cali [...]")
	}
	return args[:sep], args[sep+1:], nil
}

// groupValues runs the query over files and maps each result group (all
// non-metric entries, rendered) to its metric value.
func groupValues(queryText, metric string, files []string) (map[string]float64, error) {
	rs, err := calql.Run(context.Background(), queryText, files, calql.Options{})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, row := range rs.Rows {
		v, ok := row.GetByName(metric)
		if !ok {
			continue
		}
		out[groupKey(row, metric)] = v.AsFloat()
	}
	return out, nil
}

// groupKey renders a row's identity: every entry except the metric columns.
func groupKey(row snapshot.FlatRecord, metric string) string {
	var parts []string
	for _, e := range row {
		name := e.Attr.Name()
		if name == metric || strings.Contains(name, "#") || name == "aggregate.count" {
			continue
		}
		parts = append(parts, e.String())
	}
	if len(parts) == 0 {
		return "(total)"
	}
	return strings.Join(parts, ",")
}
