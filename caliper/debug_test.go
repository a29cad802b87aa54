package caliper

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

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

// TestDebugHandlerMethodNotAllowed: every endpoint is GET-only.
func TestDebugHandlerMethodNotAllowed(t *testing.T) {
	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()
	for _, path := range []string{
		"/debug/metrics", "/debug/queries", "/debug/log",
		"/debug/telemetry", "/debug/trace", "/debug/vars", "/debug/pprof/",
		"/debug/selfprofile",
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
