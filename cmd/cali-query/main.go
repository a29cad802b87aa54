// Command cali-query is the off-line query application of Section IV-C:
// it runs a query in the aggregation description language over one or more
// .cali datasets — on one worker, on -j in-process workers, or on
// -parallel emulated MPI ranks with the cross-process tree reduction. All
// three are the same executor and print the same bytes.
//
// Usage:
//
//	cali-query [flags] file.cali [file2.cali ...]
//
// Examples:
//
//	cali-query -q "AGGREGATE count, sum(time.duration) GROUP BY mpi.function" rank-*.cali
//	cali-query -q "AGGREGATE sum(aggregate.count) GROUP BY kernel FORMAT csv" profile.cali
//	cali-query -parallel 16 -q "..." rank-*.cali     # tree reduction over 16 ranks
//	cali-query -j 8 -q "..." rank-*.cali             # 8 in-process shard workers
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"

	"caligo/caliper"
	"caligo/calql"
	"caligo/internal/obs"
	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cali-query:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cali-query", flag.ContinueOnError)
	queryText := fs.String("q", "", "query in the aggregation description language (required)")
	parallel := fs.Int("parallel", 0, "run the MPI-emulated parallel query with this many ranks (0 = serial)")
	jobs := fs.Int("j", 1, "sharded multi-core execution with up to this many read+aggregate workers, each taking whole files (1 = serial, 0 = one per CPU)")
	noIndex := fs.Bool("no-index", false, "ignore sidecar block indexes (.cali.idx): no file/block pruning or projection pushdown")
	cacheDir := fs.String("cache", "", "per-file aggregate state cache directory (default: $CALIGO_CACHE; empty = caching off)")
	noCache := fs.Bool("no-cache", false, "disable the aggregate state cache, overriding -cache and $CALIGO_CACHE")
	showTiming := fs.Bool("timing", false, "print phase timing of the parallel query")
	showStats := fs.Bool("stats", false, "print the internal telemetry report after the run (to stderr)")
	traceOut := fs.String("trace", "", "write spans of the run as Chrome trace-event JSON to this file (view in Perfetto)")
	logFormat := fs.String("log", "", "structured logging to stderr: \"json\" or \"text\" (implies telemetry for query attribution)")
	slowThreshold := fs.Duration("slow", 0, "slow-query log threshold, e.g. 500ms (0 keeps the 1s default; implies -log text if no -log)")
	debugAddr := fs.String("debug", "", "serve /debug endpoints (metrics, queries, log, pprof) on this address for the run's duration")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cali-query [flags] file.cali [file2.cali ...]\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), "\nexample queries:\n"+
			"  AGGREGATE count, sum(time.duration) GROUP BY function, loop.iteration\n"+
			"  AGGREGATE sum(time.duration) WHERE not(mpi.function) GROUP BY amr.level\n"+
			"  SELECT kernel, sum#time.duration AS time AGGREGATE sum(time.duration) GROUP BY kernel FORMAT csv\n")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *queryText == "" {
		fs.Usage()
		return fmt.Errorf("missing -q query")
	}
	files := fs.Args()
	if len(files) == 0 {
		fs.Usage()
		return fmt.Errorf("no input files")
	}
	if *showStats {
		telemetry.Enable()
		defer telemetry.WriteReport(os.Stderr)
	}
	if *traceOut != "" {
		trace.Enable()
	}
	if *slowThreshold > 0 && *logFormat == "" {
		*logFormat = "text"
	}
	if *logFormat != "" {
		switch *logFormat {
		case "json":
			obs.SetLogOutput(os.Stderr, obs.LogJSON)
		case "text":
			obs.SetLogOutput(os.Stderr, obs.LogText)
		default:
			return fmt.Errorf("-log must be \"json\" or \"text\", got %q", *logFormat)
		}
		obs.EnableLogging()
		// attribution (and with it the slow-query log) rides on telemetry
		telemetry.Enable()
	}
	if *slowThreshold > 0 {
		obs.SetSlowQueryThreshold(*slowThreshold)
	}
	if *debugAddr != "" {
		telemetry.Enable()
		srv, err := caliper.ServeDebug(*debugAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/debug/ (metrics, queries, log, pprof)\n", srv.Addr())
	}
	res, err := calql.Run(context.Background(), *queryText, files, calql.Options{
		Jobs:    cmp.Or(max(*jobs, 0), -1), // -j 0: one worker per CPU
		Ranks:   max(*parallel, 0),
		NoIndex: *noIndex, CacheDir: *cacheDir, NoCache: *noCache,
	})
	if err != nil {
		return err
	}
	if res.Plan != "" { // EXPLAIN / EXPLAIN ANALYZE print the plan instead of rows
		_, err = fmt.Print(res.Plan)
	} else if err = res.Render(os.Stdout); err == nil && *showTiming && *parallel > 0 {
		fmt.Fprintf(os.Stderr,
			"records: %d  local: %.2f ms  reduce: %.2f ms  total (virtual): %.2f ms  wall: %v\n",
			res.RecordsProcessed,
			res.Timing.LocalVirt/1e6, res.Timing.ReduceVirt/1e6,
			res.Timing.TotalVirt/1e6, res.Timing.TotalWall)
	}
	if err != nil {
		return err
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := trace.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote trace to %s (open in ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
	return nil
}
