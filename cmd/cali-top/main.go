// Command cali-top is a live terminal monitor for a caligo process
// serving debug endpoints (caliper.ServeDebug or a host-mounted
// DebugHandler): it polls /debug/metrics (OpenMetrics text) and
// /debug/queries (per-query attribution JSON) and renders a refreshing
// top-style view of engine health — query and record rates, latency
// quantiles, runtime gauges, and the most recent queries with their
// phase breakdowns.
//
// Rates are computed client-side from two consecutive scrapes (counter
// deltas over the scrape interval), so the server needs no rate state.
// With -once, cali-top performs exactly one scrape and prints cumulative
// totals as a plain-text table — suitable for scripts and cron; the exit
// status is non-zero when the endpoint is unreachable.
//
// Usage:
//
//	cali-top [-i interval] [-n count] [-once] host:port
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"caligo/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cali-top:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cali-top", flag.ContinueOnError)
	interval := fs.Duration("i", 2*time.Second, "scrape interval")
	count := fs.Int("n", 0, "exit after this many refreshes (0 = run until interrupted)")
	once := fs.Bool("once", false, "single scrape: print cumulative totals as a plain table and exit")
	queries := fs.Int("queries", 10, "number of recent queries to show")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cali-top [flags] host:port\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), "\nthe target must serve /debug/metrics and /debug/queries\n"+
			"(see caliper.ServeDebug, or cali-query -debug :9090)\n")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one target host:port")
	}
	if *interval <= 0 {
		return fmt.Errorf("-i must be positive")
	}
	target := fs.Arg(0)
	if !strings.Contains(target, "://") {
		target = "http://" + target
	}
	mon := &monitor{
		base:    target,
		client:  &http.Client{Timeout: 10 * time.Second},
		queries: *queries,
	}
	if *once {
		cur, err := mon.scrape()
		if err != nil {
			return err
		}
		mon.renderOnce(os.Stdout, cur)
		return nil
	}
	prev, err := mon.scrape()
	if err != nil {
		return err
	}
	for i := 0; *count == 0 || i < *count; i++ {
		time.Sleep(*interval)
		cur, err := mon.scrape()
		if err != nil {
			return err
		}
		// ANSI clear-screen + home; a plain scrolling dump on terminals
		// that ignore escapes
		fmt.Print("\x1b[2J\x1b[H")
		mon.render(os.Stdout, prev, cur)
		prev = cur
	}
	return nil
}

// scrapeState is one scrape of the debug endpoints.
type scrapeState struct {
	at      time.Time
	metrics *obs.Metrics
	queries *obs.QueryStatsDoc
}

type monitor struct {
	base    string
	client  *http.Client
	queries int
}

func (m *monitor) scrape() (*scrapeState, error) {
	st := &scrapeState{at: time.Now()}
	resp, err := m.client.Get(m.base + "/debug/metrics")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /debug/metrics: %s", resp.Status)
	}
	st.metrics, err = obs.ParseMetrics(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("parse /debug/metrics: %w", err)
	}
	resp, err = m.client.Get(m.base + "/debug/queries")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /debug/queries: %s", resp.Status)
	}
	st.queries, err = obs.ParseQueryStats(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("parse /debug/queries: %w", err)
	}
	return st, nil
}

// value reads a gauge/counter family's value from a scrape (0 if absent).
func value(s *scrapeState, family string) float64 {
	if f, ok := s.metrics.Families[family]; ok {
		if v, ok := f.Value(); ok {
			return v
		}
	}
	return 0
}

// rate computes a per-second counter rate between two scrapes.
func rate(prev, cur *scrapeState, family string) float64 {
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return 0
	}
	d := value(cur, family) - value(prev, family)
	if d < 0 {
		// Counter reset (process restart between scrapes): the interval
		// straddles the restart, so no meaningful rate exists — clamp to
		// zero instead of reporting the new cumulative total as a
		// one-interval spike.
		d = 0
	}
	return d / dt
}

// histQuantile reads a histogram quantile from the current scrape.
func histQuantile(s *scrapeState, family string, q float64) (float64, bool) {
	f, ok := s.metrics.Families[family]
	if !ok {
		return 0, false
	}
	if count, ok := f.HistCount(); !ok || count == 0 {
		return 0, false
	}
	return f.HistQuantile(q)
}

func (m *monitor) render(w *os.File, prev, cur *scrapeState) {
	fmt.Fprintf(w, "cali-top — %s — %s (interval %.1fs)\n\n",
		m.base, cur.at.Format("15:04:05"), cur.at.Sub(prev.at).Seconds())

	fmt.Fprintf(w, "queries  %8.1f/s   records %12.1f/s   bytes %10s/s   errors %6.1f/s   slow %6.1f/s\n",
		rate(prev, cur, "caligo_query_queries"),
		rate(prev, cur, "caligo_query_records"),
		humanBytes(rate(prev, cur, "caligo_query_bytes")),
		rate(prev, cur, "caligo_query_errors"),
		rate(prev, cur, "caligo_query_slow"))
	fmt.Fprintf(w, "active   %8.0f     finished %10.0f\n",
		value(cur, "caligo_query_active"), float64(cur.queries.Total))
	if p50, ok := histQuantile(cur, "caligo_query_ns", 0.50); ok {
		p95, _ := histQuantile(cur, "caligo_query_ns", 0.95)
		p99, _ := histQuantile(cur, "caligo_query_ns", 0.99)
		fmt.Fprintf(w, "latency  p50 %10s   p95 %10s   p99 %10s\n",
			humanNS(p50), humanNS(p95), humanNS(p99))
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "runtime  heap %10s   sys %10s   objects %10.0f   goroutines %5.0f   gc %6.0f\n",
		humanBytes(value(cur, "caligo_runtime_heap_alloc_bytes")),
		humanBytes(value(cur, "caligo_runtime_heap_sys_bytes")),
		value(cur, "caligo_runtime_heap_objects"),
		value(cur, "caligo_runtime_goroutines"),
		value(cur, "caligo_runtime_gc_count"))
	if p99, ok := histQuantile(cur, "caligo_runtime_gc_pause_ns", 0.99); ok {
		p50, _ := histQuantile(cur, "caligo_runtime_gc_pause_ns", 0.50)
		fmt.Fprintf(w, "gc pause p50 %10s   p99 %10s\n", humanNS(p50), humanNS(p99))
	}
	if pending := value(cur, "caligo_rnet_pending_records"); pending > 0 ||
		value(cur, "caligo_rnet_epochs") > 0 {
		fmt.Fprintf(w, "rnet     epochs %6.1f/s   pending %8.0f   sync lag %10s\n",
			rate(prev, cur, "caligo_rnet_epochs"), pending,
			humanNS(value(cur, "caligo_rnet_sync_lag_ns")))
	}
	renderIndexLine(w, cur)
	renderCacheLine(w, cur)
	fmt.Fprintln(w)
	m.renderQueryTable(w, cur)
}

// renderOnce prints cumulative totals from a single scrape as a plain
// table — no rates (they need two scrapes), no screen clearing.
func (m *monitor) renderOnce(w *os.File, cur *scrapeState) {
	fmt.Fprintf(w, "cali-top — %s — %s (single scrape, totals)\n\n",
		m.base, cur.at.Format("15:04:05"))

	fmt.Fprintf(w, "queries  %10.0f     records %14.0f     bytes %10s     errors %8.0f     slow %8.0f\n",
		value(cur, "caligo_query_queries"),
		value(cur, "caligo_query_records"),
		humanBytes(value(cur, "caligo_query_bytes")),
		value(cur, "caligo_query_errors"),
		value(cur, "caligo_query_slow"))
	fmt.Fprintf(w, "active   %10.0f     finished %13.0f\n",
		value(cur, "caligo_query_active"), float64(cur.queries.Total))
	if p50, ok := histQuantile(cur, "caligo_query_ns", 0.50); ok {
		p95, _ := histQuantile(cur, "caligo_query_ns", 0.95)
		p99, _ := histQuantile(cur, "caligo_query_ns", 0.99)
		fmt.Fprintf(w, "latency  p50 %10s   p95 %10s   p99 %10s\n",
			humanNS(p50), humanNS(p95), humanNS(p99))
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "runtime  heap %10s   sys %10s   objects %10.0f   goroutines %5.0f   gc %6.0f\n",
		humanBytes(value(cur, "caligo_runtime_heap_alloc_bytes")),
		humanBytes(value(cur, "caligo_runtime_heap_sys_bytes")),
		value(cur, "caligo_runtime_heap_objects"),
		value(cur, "caligo_runtime_goroutines"),
		value(cur, "caligo_runtime_gc_count"))
	if pending := value(cur, "caligo_rnet_pending_records"); pending > 0 ||
		value(cur, "caligo_rnet_epochs") > 0 {
		fmt.Fprintf(w, "rnet     epochs %8.0f   pending %8.0f   sync lag %10s\n",
			value(cur, "caligo_rnet_epochs"), pending,
			humanNS(value(cur, "caligo_rnet_sync_lag_ns")))
	}
	renderIndexLine(w, cur)
	renderCacheLine(w, cur)
	fmt.Fprintln(w)
	m.renderQueryTable(w, cur)
}

// renderIndexLine prints sidecar-index scan-pruning totals when any
// indexed scan has run (all counters zero → the line is omitted).
func renderIndexLine(w *os.File, cur *scrapeState) {
	indexed := value(cur, "caligo_index_files_indexed")
	fallbacks := value(cur, "caligo_index_fallback")
	if indexed == 0 && fallbacks == 0 {
		return
	}
	fmt.Fprintf(w, "index    files %6.0f used %6.0f skipped   blocks %8.0f scanned %8.0f pruned   records pruned %12.0f   fallbacks %4.0f\n",
		indexed,
		value(cur, "caligo_index_files_skipped"),
		value(cur, "caligo_index_blocks_scanned"),
		value(cur, "caligo_index_blocks_pruned"),
		value(cur, "caligo_index_records_pruned"),
		fallbacks)
}

// renderCacheLine prints aggregate-cache totals when any cached query
// has run (all counters zero → the line is omitted).
func renderCacheLine(w *os.File, cur *scrapeState) {
	hits := value(cur, "caligo_qcache_hits")
	misses := value(cur, "caligo_qcache_misses")
	incr := value(cur, "caligo_qcache_incremental")
	if hits == 0 && misses == 0 && incr == 0 {
		return
	}
	hitRate := 0.0
	if total := hits + misses + incr; total > 0 {
		// incremental scans reuse the prefix: count them as hits
		hitRate = (hits + incr) / total * 100
	}
	fmt.Fprintf(w, "qcache   hit %5.1f%%   hits %8.0f   misses %8.0f   incremental %6.0f   skipped %10s   store %10s/%.0f entries   fallbacks %4.0f\n",
		hitRate, hits, misses, incr,
		humanBytes(value(cur, "caligo_qcache_bytes_skipped")),
		humanBytes(value(cur, "caligo_qcache_store_bytes")),
		value(cur, "caligo_qcache_store_entries"),
		value(cur, "caligo_qcache_fallback"))
}

// renderQueryTable prints the recent-queries table and the phase
// breakdown of the slowest one (shared by live and -once modes).
func (m *monitor) renderQueryTable(w *os.File, cur *scrapeState) {
	qs := cur.queries.Queries
	if len(qs) == 0 {
		fmt.Fprintln(w, "no queries recorded (telemetry off, or nothing has run)")
		return
	}
	fmt.Fprintf(w, "%-5s %-8s %-10s %12s %10s %6s %6s %6s  %s\n",
		"QID", "ENGINE", "TIME", "RECORDS", "BYTES", "ROWS", "CACHE", "FLAGS", "QUERY")
	shown := 0
	for _, q := range qs {
		if shown >= m.queries {
			break
		}
		flags := ""
		if !q.Done {
			flags += "R" // running
		}
		if q.Slow {
			flags += "S"
		}
		if q.Err != "" {
			flags += "E"
		}
		cache := "-"
		if total := q.CacheHits + q.CacheMisses + q.CacheIncremental; total > 0 {
			cache = fmt.Sprintf("%.0f%%", float64(q.CacheHits+q.CacheIncremental)/float64(total)*100)
		}
		text := q.Text
		if len(text) > 48 {
			text = text[:45] + "..."
		}
		fmt.Fprintf(w, "%-5d %-8s %-10s %12d %10s %6d %6s %6s  %s\n",
			q.ID, q.Engine, humanNS(float64(q.DurationNS)),
			q.Records, humanBytes(float64(q.Bytes)), q.Rows, cache, flags, text)
		shown++
	}
	// phase breakdown of the slowest recent query
	slowest := qs[0]
	for _, q := range qs {
		if q.Done && q.DurationNS > slowest.DurationNS {
			slowest = q
		}
	}
	if len(slowest.Phases) > 0 {
		phases := append([]obs.PhaseTiming(nil), slowest.Phases...)
		sort.Slice(phases, func(i, j int) bool { return phases[i].NS > phases[j].NS })
		fmt.Fprintf(w, "\nslowest qid %d phases:", slowest.ID)
		for _, p := range phases {
			fmt.Fprintf(w, "  %s=%s", p.Name, humanNS(float64(p.NS)))
		}
		if slowest.Shards > 0 {
			fmt.Fprintf(w, "  shards=%d skew=%.0f%%", slowest.Shards, slowest.ShardSkew*100)
		}
		fmt.Fprintln(w)
	}
}

// humanNS renders nanoseconds in an adaptive unit.
func humanNS(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// humanBytes renders a byte count in an adaptive unit.
func humanBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}
