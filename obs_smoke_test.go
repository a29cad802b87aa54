package caligo

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"caligo/caliper"
	"caligo/calql"
	"caligo/internal/apps/cleverleaf"
	"caligo/internal/obs"
	"caligo/internal/telemetry"
)

// TestEndpointSmoke is the ops-surface smoke test `make check` runs: it
// starts a real debug server, drives a sharded query with a slow-query
// threshold armed, then scrapes /debug/metrics, /debug/queries, and
// /debug/log over HTTP and validates the bodies with the same parsers
// cali-top uses.
func TestEndpointSmoke(t *testing.T) {
	prevTel := telemetry.SetEnabled(true)
	prevLog := obs.SetLogEnabled(true)
	prevSlow := obs.SetSlowQueryThreshold(time.Nanosecond) // everything is slow
	t.Cleanup(func() {
		telemetry.SetEnabled(prevTel)
		obs.SetLogEnabled(prevLog)
		obs.SetSlowQueryThreshold(prevSlow)
	})

	srv, err := caliper.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// drive the engine: record per-rank profiles, query them sharded
	dir := t.TempDir()
	app := cleverleaf.Config{Ranks: 4, Timesteps: 4, Levels: 2, WorkScale: 1, VirtualTime: true}
	files := writeProfiles(t, dir, app, caliper.Config{
		"services":      "event,timer,aggregate",
		"timer.source":  "virtual",
		"aggregate.key": "kernel,mpi.rank",
		"aggregate.ops": "count,sum(time.duration)",
	})
	const queryText = "AGGREGATE sum(aggregate.count), sum(sum#time.duration) GROUP BY kernel"
	res, err := calql.Run(context.Background(), queryText, files, calql.Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("query returned no rows")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	// /debug/metrics parses as OpenMetrics and carries the query metrics,
	// the runtime gauges, and full histogram series
	metrics, err := obs.ParseMetrics(strings.NewReader(get("/debug/metrics")))
	if err != nil {
		t.Fatalf("/debug/metrics does not parse: %v", err)
	}
	if !metrics.EOF {
		t.Error("/debug/metrics missing # EOF terminator")
	}
	for _, family := range []string{
		"caligo_query_queries", "caligo_query_ns", "caligo_query_records",
		"caligo_runtime_heap_alloc_bytes", "caligo_runtime_goroutines",
	} {
		if _, ok := metrics.Families[family]; !ok {
			t.Errorf("/debug/metrics missing family %s", family)
		}
	}
	if f := metrics.Families["caligo_query_ns"]; f != nil {
		if f.Type != "histogram" {
			t.Errorf("caligo_query_ns type = %s, want histogram", f.Type)
		}
		count, ok := f.HistCount()
		if !ok || count < 1 {
			t.Errorf("caligo_query_ns _count = %v (ok=%v), want >= 1", count, ok)
		}
		hasBucket, hasSum := false, false
		for _, s := range f.Samples {
			hasBucket = hasBucket || s.Name == "caligo_query_ns_bucket"
			hasSum = hasSum || s.Name == "caligo_query_ns_sum"
		}
		if !hasSum {
			t.Error("caligo_query_ns missing _sum")
		}
		if !hasBucket {
			t.Error("caligo_query_ns missing _bucket series")
		}
	}

	// /debug/queries carries the attributed run with shard accounting
	stats, err := obs.ParseQueryStats(strings.NewReader(get("/debug/queries")))
	if err != nil {
		t.Fatalf("/debug/queries does not parse: %v", err)
	}
	var found *obs.QueryStats
	for i := range stats.Queries {
		if stats.Queries[i].Text == queryText {
			found = &stats.Queries[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("query not in /debug/queries (total=%d)", stats.Total)
	}
	if found.Engine != "sharded" || found.Shards != 4 || found.Records == 0 || !found.Slow {
		t.Errorf("attribution record: engine=%s shards=%d records=%d slow=%v",
			found.Engine, found.Shards, found.Records, found.Slow)
	}

	// /debug/log carries the slow-query flight-recorder entry with the
	// CalQL text and a phase breakdown
	logBody := get("/debug/log")
	slowSeen := false
	for _, line := range strings.Split(strings.TrimSpace(logBody), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("/debug/log line is not JSON: %v\n%s", err, line)
		}
		if rec["msg"] == "slow query" && rec["calql"] == queryText {
			slowSeen = true
			if _, ok := rec["phase.merge.ns"]; !ok {
				t.Errorf("slow-query entry missing merge phase: %v", rec)
			}
		}
	}
	if !slowSeen {
		t.Errorf("no slow-query entry for %q in /debug/log:\n%s", queryText, logBody)
	}

}
