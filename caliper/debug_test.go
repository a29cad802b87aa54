package caliper

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"caligo/internal/obs"
	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

func TestDebugHandlerEndpoints(t *testing.T) {
	// generate some telemetry and trace data so the bodies are non-trivial
	prevTel := telemetry.SetEnabled(true)
	prevTr := trace.SetEnabled(true)
	t.Cleanup(func() {
		telemetry.SetEnabled(prevTel)
		trace.SetEnabled(prevTr)
	})
	ch, err := NewChannel(Config{
		"services":      "event,aggregate",
		"aggregate.key": "phase",
	})
	if err != nil {
		t.Fatal(err)
	}
	th := ch.Thread()
	th.SetTraceRank(1)
	if err := th.Begin("phase", "debug-test"); err != nil {
		t.Fatal(err)
	}
	if err := th.End("phase"); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Flush(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	t.Run("telemetry", func(t *testing.T) {
		code, body, ctype := get("/debug/telemetry")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if !strings.HasPrefix(ctype, "text/plain") {
			t.Errorf("content type %q", ctype)
		}
		if !strings.Contains(body, "caligo.snapshot.ns") {
			t.Errorf("telemetry report missing snapshot counter:\n%s", body)
		}
	})

	t.Run("trace", func(t *testing.T) {
		code, body, ctype := get("/debug/trace")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("content type %q", ctype)
		}
		var parsed struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(body), &parsed); err != nil {
			t.Fatalf("trace body is not valid JSON: %v\n%s", err, body)
		}
		var names []string
		for _, e := range parsed.TraceEvents {
			if n, ok := e["name"].(string); ok {
				names = append(names, n)
			}
		}
		joined := strings.Join(names, " ")
		for _, want := range []string{"caliper.snapshot", "caliper.flush", "debug-test"} {
			if !strings.Contains(joined, want) {
				t.Errorf("trace missing span %q in %v", want, names)
			}
		}
	})

	t.Run("expvar", func(t *testing.T) {
		code, body, _ := get("/debug/vars")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		var parsed map[string]any
		if err := json.Unmarshal([]byte(body), &parsed); err != nil {
			t.Fatalf("expvar body is not valid JSON: %v", err)
		}
		if _, ok := parsed["caligo.telemetry"]; !ok {
			t.Error("expvar output missing caligo.telemetry")
		}
	})

	t.Run("pprof", func(t *testing.T) {
		code, body, _ := get("/debug/pprof/")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if !strings.Contains(body, "goroutine") {
			t.Errorf("pprof index missing profile list:\n%.200s", body)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		code, body, ctype := get("/debug/metrics")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if ctype != obs.ContentType {
			t.Errorf("content type %q, want %q", ctype, obs.ContentType)
		}
		parsed, err := obs.ParseMetrics(strings.NewReader(body))
		if err != nil {
			t.Fatalf("metrics body is not valid OpenMetrics: %v\n%s", err, body)
		}
		if !parsed.EOF {
			t.Error("metrics body missing # EOF terminator")
		}
		if _, ok := parsed.Families["caligo_snapshot_ns"]; !ok {
			t.Errorf("metrics missing caligo_snapshot_ns family; have %d families", len(parsed.Families))
		}
	})

	t.Run("queries", func(t *testing.T) {
		code, body, ctype := get("/debug/queries")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("content type %q", ctype)
		}
		var doc struct {
			Total   uint64           `json:"total"`
			Queries []map[string]any `json:"queries"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("queries body is not valid JSON: %v\n%s", err, body)
		}
	})

	t.Run("log", func(t *testing.T) {
		code, body, ctype := get("/debug/log")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if !strings.HasPrefix(ctype, "application/x-ndjson") {
			t.Errorf("content type %q", ctype)
		}
		for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
			if line != "" && !json.Valid([]byte(line)) {
				t.Errorf("flight recorder line is not JSON: %q", line)
			}
		}
	})
}

// TestDebugHistoryAndClusterEndpoints covers the telemetry-history
// JSON endpoints: the retained-window timeline (with ?window= / ?rank=
// filters) and the cluster-wide merged view.
func TestDebugHistoryAndClusterEndpoints(t *testing.T) {
	prevTel := telemetry.SetEnabled(true)
	t.Cleanup(func() { telemetry.SetEnabled(prevTel) })
	reg := telemetry.NewRegistry()
	if err := StartHistory(HistoryOptions{
		Dir: t.TempDir(), Interval: time.Hour, Rank: 2, Registry: reg,
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(StopHistory)
	c := reg.Counter("debugtest.history.events")
	rec := HistoryRecorder()
	for i := 0; i < 2; i++ {
		c.Add(5)
		if _, err := rec.CaptureNow(); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}
	type windowsDoc struct {
		Count   int `json:"count"`
		Windows []struct {
			Rank    int `json:"rank"`
			Metrics []struct {
				Name  string `json:"name"`
				Delta uint64 `json:"delta"`
			} `json:"metrics"`
		} `json:"windows"`
	}
	getDoc := func(path string) windowsDoc {
		t.Helper()
		code, body, ctype := get(path)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, code)
		}
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("GET %s: content type %q", path, ctype)
		}
		var doc windowsDoc
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, body)
		}
		return doc
	}

	t.Run("history", func(t *testing.T) {
		doc := getDoc("/debug/history")
		if doc.Count != 2 || len(doc.Windows) != 2 {
			t.Fatalf("count/windows = %d/%d, want 2/2", doc.Count, len(doc.Windows))
		}
		w := doc.Windows[0]
		if w.Rank != 2 {
			t.Errorf("window rank = %d, want 2", w.Rank)
		}
		if len(w.Metrics) != 1 || w.Metrics[0].Name != "debugtest.history.events" || w.Metrics[0].Delta != 5 {
			t.Errorf("window metrics = %+v", w.Metrics)
		}
	})

	t.Run("history filters", func(t *testing.T) {
		if doc := getDoc("/debug/history?window=1"); doc.Count != 1 {
			t.Errorf("?window=1 count = %d, want 1", doc.Count)
		}
		if doc := getDoc("/debug/history?rank=2"); doc.Count != 2 {
			t.Errorf("?rank=2 count = %d, want 2", doc.Count)
		}
		if doc := getDoc("/debug/history?rank=99"); doc.Count != 0 {
			t.Errorf("?rank=99 count = %d, want 0", doc.Count)
		}
		for _, q := range []string{"?window=x", "?window=-1", "?rank=x", "?rank=-2"} {
			if code, _, _ := get("/debug/history" + q); code != http.StatusBadRequest {
				t.Errorf("GET /debug/history%s: status %d, want 400", q, code)
			}
		}
	})

	t.Run("cluster", func(t *testing.T) {
		code, body, ctype := get("/debug/cluster")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("content type %q", ctype)
		}
		var doc struct {
			Ranks       int              `json:"ranks"`
			SlowestRank *int             `json:"slowest_rank"`
			Metrics     []map[string]any `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("cluster body is not valid JSON: %v\n%s", err, body)
		}
		if doc.SlowestRank == nil || doc.Metrics == nil {
			t.Errorf("cluster document missing slowest_rank/metrics fields:\n%s", body)
		}
	})
}

// TestDebugHandlerMethodNotAllowed: every endpoint is GET-only.
func TestDebugHandlerMethodNotAllowed(t *testing.T) {
	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()
	for _, path := range []string{
		"/debug/metrics", "/debug/queries", "/debug/log",
		"/debug/telemetry", "/debug/trace", "/debug/vars", "/debug/pprof/",
		"/debug/selfprofile", "/debug/history", "/debug/cluster",
	} {
		resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
			t.Errorf("POST %s: Allow header %q, want GET", path, allow)
		}
	}
}

// TestDebugMetricsScrapeWhileMutate scrapes /debug/metrics, /debug/log,
// and /debug/queries while telemetry mutates underneath (run under -race
// in CI).
func TestDebugMetricsScrapeWhileMutate(t *testing.T) {
	prevTel := telemetry.SetEnabled(true)
	prevLog := obs.SetLogEnabled(true)
	t.Cleanup(func() {
		telemetry.SetEnabled(prevTel)
		obs.SetLogEnabled(prevLog)
	})
	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()

	stop := make(chan struct{})
	var mutators sync.WaitGroup
	for w := 0; w < 2; w++ {
		mutators.Add(1)
		go func() {
			defer mutators.Done()
			c := telemetry.NewCounter("caligo.debugtest.events")
			h := telemetry.NewHistogram("caligo.debugtest.ns")
			log := obs.Logger("debugtest")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(int64(i%1000 + 1))
				log.Info("mutate", "i", i)
				aq := obs.BeginQuery("AGGREGATE count", "serial")
				aq.SetRows(1)
				aq.End(nil)
			}
		}()
	}

	var scrapers sync.WaitGroup
	for s := 0; s < 3; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 20; i++ {
				for _, path := range []string{"/debug/metrics", "/debug/log", "/debug/queries"} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if path == "/debug/metrics" {
						if _, err := obs.ParseMetrics(strings.NewReader(string(body))); err != nil {
							t.Errorf("scrape %d: invalid OpenMetrics: %v", i, err)
							return
						}
					}
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	mutators.Wait()
}

func TestServeDebugServesHandler(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
}
