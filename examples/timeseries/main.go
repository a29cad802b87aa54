// Timeseries demonstrates the data-volume/detail tradeoff of Section III-B
// and the extended operator set: the same event stream is aggregated under
// three schemes of increasing detail (scalar profile, time-series profile,
// value histogram), showing how the aggregation key and operators control
// what is retained — "covering the entire space between full traces and a
// scalar value".
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"caligo/caliper"
	"caligo/calql"
)

var sink float64

// simulate runs a synthetic solver loop with iteration-dependent load on
// one thread of the given channels (same events into each).
func simulate(threads []*caliper.Thread) {
	rng := rand.New(rand.NewSource(42))
	each := func(fn func(t *caliper.Thread)) {
		for _, t := range threads {
			fn(t)
		}
	}
	for it := 0; it < 60; it++ {
		each(func(t *caliper.Thread) { t.Set("iteration", it) })
		for _, phase := range []string{"assemble", "solve", "update"} {
			each(func(t *caliper.Thread) { t.Begin("phase", phase) })
			// the solve phase gets slower as the system evolves
			n := 4000
			if phase == "solve" {
				n += it * 900
			}
			n += rng.Intn(2000)
			acc := 0.0
			for i := 0; i < n; i++ {
				acc += float64(i%13) * 1.1
			}
			sink += acc
			each(func(t *caliper.Thread) { t.End("phase") })
		}
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "timeseries:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	configs := []struct {
		name  string
		key   string
		ops   string
		query string
	}{
		{
			name: "scalar profile (coarsest: one row per phase)",
			key:  "phase",
			ops:  "count,sum(time.duration),avg(time.duration),stddev(time.duration)",
			query: `SELECT phase, aggregate.count AS count, sum#time.duration AS total,
			        avg#time.duration AS avg, stddev#time.duration AS stddev
			        WHERE phase ORDER BY sum#time.duration DESC`,
		},
		{
			name: "time-series profile (phase x 10-iteration block)",
			key:  "phase,iteration",
			ops:  "count,sum(time.duration)",
			query: `LET block = truncate(iteration, 10)
			        AGGREGATE sum(aggregate.count) AS count, sum(sum#time.duration) AS total
			        GROUP BY phase, block WHERE phase=solve
			        ORDER BY block`,
		},
		{
			name: "duration histogram (distribution per phase)",
			key:  "phase",
			ops:  "histogram(time.duration, 0, 160000, 8)",
			query: `SELECT phase, histogram#time.duration AS histogram
			        WHERE phase ORDER BY phase`,
		},
	}

	// one channel per scheme, all fed by the same annotated execution
	var channels []*caliper.Channel
	var threads []*caliper.Thread
	for _, c := range configs {
		ch, err := caliper.NewChannel(caliper.Config{
			"services":      "event,timer,aggregate",
			"aggregate.key": c.key,
			"aggregate.ops": c.ops,
		})
		if err != nil {
			return err
		}
		channels = append(channels, ch)
		threads = append(threads, ch.Thread())
	}

	simulate(threads)

	for i, c := range configs {
		fmt.Fprintf(w, "== %s ==\n", c.name)
		fmt.Fprintf(w, "   on-line scheme: AGGREGATE %s GROUP BY %s\n\n", c.ops, c.key)
		rs, err := calql.QueryChannel(c.query, channels[i])
		if err != nil {
			return err
		}
		if err := rs.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "the same annotations served all three analyses; only the")
	fmt.Fprintln(w, "aggregation schemes differ (Section III-B's tradeoff).")
	return nil
}
