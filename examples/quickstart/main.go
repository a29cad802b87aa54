// Quickstart reproduces the paper's Listing 1 and Section III-B example:
// a program whose loop and functions are annotated, profiled on-line with
//
//	AGGREGATE count, sum(time.duration) GROUP BY function, loop.iteration
//
// and printed as the paper's result table. It then shows the "more
// compact" variant that drops loop.iteration from the aggregation key.
package main

import (
	"fmt"
	"io"
	"os"

	"caligo/caliper"
	"caligo/calql"
)

func foo(th *caliper.Thread) {
	th.Begin("function", "foo")
	defer th.End("function")
	work(20000)
}

func bar(th *caliper.Thread) {
	th.Begin("function", "bar")
	defer th.End("function")
	work(10000)
}

var sink float64

func work(n int) {
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += float64(i%17) * 0.5
	}
	sink += acc
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// The aggregation scheme is ordinary runtime configuration — no
	// recompilation needed to change what is collected.
	ch, err := caliper.NewChannel(caliper.Config{
		"services":      "event,timer,aggregate",
		"aggregate.key": "function,loop.iteration",
		"aggregate.ops": "count,sum(time.duration)",
	})
	if err != nil {
		return err
	}
	th := ch.Thread()

	// Listing 1: four loop iterations calling foo twice and bar once.
	for i := 0; i < 4; i++ {
		th.Begin("loop.iteration", i)
		foo(th)
		foo(th)
		bar(th)
		th.End("loop.iteration")
	}

	// Print the time-series function profile (the paper's example table).
	rs, err := calql.QueryChannel(`
		SELECT function, loop.iteration, aggregate.count AS count,
		       sum#time.duration AS sum#time
		AGGREGATE count, sum(time.duration)
		GROUP BY function, loop.iteration
		ORDER BY loop.iteration, function DESC`, ch)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "time-series function profile (one row per function x iteration):")
	if err := rs.Render(w); err != nil {
		return err
	}

	// The compact variant: re-aggregate the profile without the iteration
	// number — the multi-stage workflow of Section VI.
	fmt.Fprintln(w, "\ncompact profile (loop.iteration removed from the key):")
	rs2, err := calql.QueryRecords(`
		AGGREGATE sum(aggregate.count) AS count, sum(sum#time.duration) AS sum#time
		GROUP BY function ORDER BY function DESC`, rs.Reg, rs.Rows)
	if err != nil {
		return err
	}
	return rs2.Render(w)
}
