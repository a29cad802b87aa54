// Amrstudy demonstrates the paper's headline capability (Section VI-E):
// application-specific data dimensions in aggregation schemes. The AMR
// refinement level is a concept only the application knows; exporting it
// as an attribute and including it in the aggregation key lets the
// profiler answer questions no hard-coded tool layout could:
//
//	AGGREGATE sum(time.duration) WHERE not(mpi.function)
//	GROUP BY amr.level, iteration#mainloop
//
// The example runs the CleverLeaf proxy, collects a scheme-C-style full
// profile on-line, and derives both the per-timestep (Figure 8) and the
// per-rank (Figure 9) refinement-level views off-line — from the same
// dataset, by changing only the query.
package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"caligo/caliper"
	"caligo/calql"
	"caligo/internal/apps/cleverleaf"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "amrstudy:", err)
		os.Exit(1)
	}
}

func run() error {
	const ranks = 6
	app := cleverleaf.Config{
		Ranks: ranks, Timesteps: 30, Levels: 3, WorkScale: 1, VirtualTime: true,
	}

	// Scheme C of the paper: every annotation attribute in the key,
	// including the main loop iteration and the AMR level.
	channels := make([]*caliper.Channel, ranks)
	for r := range channels {
		ch, err := caliper.NewChannel(caliper.Config{
			"services":      "event,timer,aggregate",
			"timer.source":  "virtual",
			"aggregate.key": "function,annotation,amr.level,kernel,iteration#mainloop,mpi.rank,mpi.function",
			"aggregate.ops": "count,sum(time.duration)",
		})
		if err != nil {
			return err
		}
		channels[r] = ch
	}
	if err := cleverleaf.Run(app, func(rank int) *caliper.Thread {
		return channels[rank].Thread()
	}); err != nil {
		return err
	}

	// Write per-process profiles to disk, as a real run would.
	dir, err := os.MkdirTemp("", "amrstudy")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var files []string
	for r, ch := range channels {
		path := fmt.Sprintf("%s/rank-%02d.cali", dir, r)
		if err := writeProfile(ch, path); err != nil {
			return err
		}
		files = append(files, path)
	}

	// Question 1 (Figure 8): how does time per refinement level evolve
	// over the simulation?
	fmt.Println("runtime per AMR level, every 5th timestep (ms, all ranks):")
	rs, err := calql.Run(context.Background(), `
		LET block = truncate(iteration#mainloop, 5)
		AGGREGATE sum(sum#time.duration) AS time
		WHERE not(mpi.function)
		GROUP BY amr.level, block
		ORDER BY block, amr.level`, files, calql.Options{})
	if err != nil {
		return err
	}
	printLevelSeries(rs.Resultset, "block")

	// Question 2 (Figure 9): how do the levels distribute across ranks?
	fmt.Println("\nruntime per AMR level per MPI rank (ms):")
	rs2, err := calql.Run(context.Background(), `
		AGGREGATE sum(sum#time.duration) AS time
		WHERE not(mpi.function)
		GROUP BY amr.level, mpi.rank
		ORDER BY mpi.rank, amr.level`, files, calql.Options{})
	if err != nil {
		return err
	}
	printLevelSeries(rs2.Resultset, "mpi.rank")

	fmt.Println("\nthe refinement region grows over time: level 2 cost rises while")
	fmt.Println("level 0 stays flat — the behaviour the paper shows in Figure 8.")
	return nil
}

// writeProfile flushes a channel's aggregation results to a .cali file.
func writeProfile(ch *caliper.Channel, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := calformat.NewWriter(f, ch.Registry(), contexttree.New())
	if err := ch.FlushEmit(w.WriteFlat); err != nil {
		return err
	}
	return w.Flush()
}

// printLevelSeries prints rows grouped by a series column with one column
// per amr.level.
func printLevelSeries(rs *calql.Resultset, seriesCol string) {
	type key struct{ series, level string }
	vals := map[key]float64{}
	var seriesOrder []string
	seen := map[string]bool{}
	levels := map[string]bool{}
	for _, row := range rs.Rows {
		sv, ok := row.GetByName(seriesCol)
		if !ok {
			continue
		}
		lv, ok := row.GetByName("amr.level")
		if !ok {
			continue
		}
		t, _ := row.GetByName("time")
		vals[key{sv.String(), lv.String()}] += t.AsFloat() / 1e6
		if !seen[sv.String()] {
			seen[sv.String()] = true
			seriesOrder = append(seriesOrder, sv.String())
		}
		levels[lv.String()] = true
	}
	var levelOrder []string
	for l := range levels {
		levelOrder = append(levelOrder, l)
	}
	sortStrings(levelOrder)
	fmt.Printf("%10s", seriesCol)
	for _, l := range levelOrder {
		fmt.Printf(" %10s", "level "+l)
	}
	fmt.Println()
	for _, s := range seriesOrder {
		fmt.Printf("%10s", s)
		for _, l := range levelOrder {
			fmt.Printf(" %10.2f", vals[key{s, l}])
		}
		fmt.Println()
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && strings.Compare(s[j], s[j-1]) < 0; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
