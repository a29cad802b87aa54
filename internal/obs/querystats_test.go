package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

// fixedPhases is a PhaseSource with given measurements.
type fixedPhases []PhaseTiming

func (f fixedPhases) Phases() []PhaseTiming { return f }

func withQueryStats(t *testing.T) {
	t.Helper()
	withTelemetry(t, true)
	withLogging(t, true)
	ResetQueryStats()
	t.Cleanup(ResetQueryStats)
}

func TestBeginQueryDisabled(t *testing.T) {
	withTelemetry(t, false)
	if aq := BeginQuery("AGGREGATE count", "serial"); aq != nil {
		t.Fatal("BeginQuery returned non-nil with telemetry disabled")
	}
	// nil-receiver methods are no-ops
	var aq *ActiveQuery
	aq.SetPhases(fixedPhases(nil))
	aq.SetRows(1)
	aq.End(nil)
	if aq.ID() != 0 {
		t.Error("nil ActiveQuery has non-zero ID")
	}
}

func TestQueryAttribution(t *testing.T) {
	withQueryStats(t)
	aq := BeginQuery("AGGREGATE count GROUP BY kernel", "sharded")
	if aq == nil {
		t.Fatal("BeginQuery returned nil with telemetry enabled")
	}
	if aq.ID() == 0 {
		t.Error("query ID is 0")
	}
	// the phases come from the query's profile, as its executor's spans
	// summed them: two shards of 10 and 40 ms, three merges
	aq.SetPhases(fixedPhases{
		{Name: "shard", Spans: 2, NS: 50e6, MinNS: 10e6, MaxNS: 40e6,
			Stats: []trace.Stat{{Name: "records", Value: 400}, {Name: "bytes", Value: 20000}}},
		{Name: "merge", Spans: 3, NS: 3e6, MinNS: 0.5e6, MaxNS: 2e6},
		{Name: "postprocess", Spans: 1, NS: 1e6, MinNS: 1e6, MaxNS: 1e6},
	})
	aq.SetRows(7)
	aq.End(nil)

	snap := QuerySnapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d queries, want 1", len(snap))
	}
	s := snap[0]
	if !s.Done || s.Err != "" {
		t.Errorf("done=%v err=%q", s.Done, s.Err)
	}
	if s.Records != 400 || s.Bytes != 20000 || s.Rows != 7 || s.Shards != 2 {
		t.Errorf("records=%d bytes=%d rows=%d shards=%d", s.Records, s.Bytes, s.Rows, s.Shards)
	}
	if want := 0.75; s.ShardSkew != want {
		t.Errorf("shard skew = %g, want %g", s.ShardSkew, want)
	}
	var merge, post int64
	for _, p := range s.Phases {
		switch p.Name {
		case "merge":
			merge = p.NS
		case "postprocess":
			post = p.NS
		}
	}
	if merge != 3*time.Millisecond.Nanoseconds() || post != time.Millisecond.Nanoseconds() {
		t.Errorf("phases merge=%d postprocess=%d", merge, post)
	}
}

func TestSlowQueryLogEntry(t *testing.T) {
	withQueryStats(t)
	prev := SetSlowQueryThreshold(time.Nanosecond) // everything is slow
	defer SetSlowQueryThreshold(prev)

	aq := BeginQuery("AGGREGATE sum(time.duration) GROUP BY function", "serial")
	var prof trace.Profile
	aq.SetPhases(&prof)
	sp := prof.Begin("query.read", 0)
	time.Sleep(time.Millisecond)
	sp.End()
	aq.End(nil)

	var buf bytes.Buffer
	if err := WriteFlightRecorder(&buf); err != nil {
		t.Fatal(err)
	}
	var entry map[string]any
	found := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) == nil && rec["msg"] == "slow query" {
			entry = rec
			found = true
		}
	}
	if !found {
		t.Fatalf("no slow-query entry in flight recorder:\n%s", buf.String())
	}
	if entry["qid"] != float64(aq.ID()) {
		t.Errorf("slow entry qid = %v, want %d", entry["qid"], aq.ID())
	}
	if entry["calql"] != "AGGREGATE sum(time.duration) GROUP BY function" {
		t.Errorf("slow entry lost the CalQL text: %v", entry["calql"])
	}
	if ns, ok := entry["phase.read.ns"].(float64); !ok || ns < float64(time.Millisecond) {
		t.Errorf("slow entry missing phase breakdown: %v", entry)
	}
	// and the stats record is marked slow
	if snap := QuerySnapshot(); len(snap) != 1 || !snap[0].Slow {
		t.Errorf("query not marked slow in snapshot: %+v", snap)
	}
}

func TestFastQueryNoSlowEntry(t *testing.T) {
	withQueryStats(t)
	prev := SetSlowQueryThreshold(time.Hour)
	defer SetSlowQueryThreshold(prev)
	BeginQuery("AGGREGATE count", "serial").End(nil)
	var buf bytes.Buffer
	if err := WriteFlightRecorder(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "slow query") {
		t.Errorf("fast query logged as slow:\n%s", buf.String())
	}
	if snap := QuerySnapshot(); len(snap) != 1 || snap[0].Slow {
		t.Errorf("fast query marked slow: %+v", snap)
	}
}

func TestQueryFailureLogged(t *testing.T) {
	withQueryStats(t)
	aq := BeginQuery("AGGREGATE bogus(", "serial")
	aq.End(errors.New("parse error at bogus"))
	var buf bytes.Buffer
	if err := WriteFlightRecorder(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "query failed") || !strings.Contains(buf.String(), "parse error at bogus") {
		t.Errorf("failure not in flight recorder:\n%s", buf.String())
	}
	if snap := QuerySnapshot(); len(snap) != 1 || snap[0].Err == "" {
		t.Errorf("failure not in stats: %+v", snap)
	}
}

func TestQueryLogBounded(t *testing.T) {
	withQueryStats(t)
	for i := 0; i < defaultQueryLogCap+50; i++ {
		BeginQuery("Q", "serial").End(nil)
	}
	snap := QuerySnapshot()
	if len(snap) != defaultQueryLogCap {
		t.Fatalf("finished table holds %d, want %d", len(snap), defaultQueryLogCap)
	}
	// newest first
	for i := 1; i < len(snap); i++ {
		if snap[i].ID > snap[i-1].ID {
			t.Fatalf("snapshot not newest-first at %d: %d after %d", i, snap[i].ID, snap[i-1].ID)
		}
	}
}

func TestActiveQueriesInSnapshot(t *testing.T) {
	withQueryStats(t)
	aq := BeginQuery("LONG RUNNING", "mpi")
	snap := QuerySnapshot()
	if len(snap) != 1 || snap[0].Done {
		t.Fatalf("active query missing or marked done: %+v", snap)
	}
	if snap[0].DurationNS <= 0 {
		t.Error("active query has no running duration")
	}
	aq.End(nil)
}

func TestWriteQueryStatsJSON(t *testing.T) {
	withQueryStats(t)
	BeginQuery("AGGREGATE count", "serial").End(nil)
	var buf bytes.Buffer
	if err := WriteQueryStats(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Total   uint64       `json:"total"`
		Queries []QueryStats `json:"queries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("stats endpoint body not JSON: %v\n%s", err, buf.String())
	}
	if doc.Total != 1 || len(doc.Queries) != 1 {
		t.Errorf("total=%d queries=%d", doc.Total, len(doc.Queries))
	}
}

// TestQueryStatsConcurrent hammers attribution from concurrent queries
// and snapshot readers (run under -race in CI).
func TestQueryStatsConcurrent(t *testing.T) {
	withQueryStats(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				aq := BeginQuery("CONCURRENT", "sharded")
				var prof trace.Profile
				aq.SetPhases(&prof)
				for w := 0; w < 2; w++ {
					sp := prof.Begin("query.shard", 0)
					sp.ArgInt("records", 10)
					sp.End()
				}
				aq.End(nil)
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = QuerySnapshot()
				var buf bytes.Buffer
				if err := WriteQueryStats(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRuntimeSampler(t *testing.T) {
	withTelemetry(t, true)
	stop := StartRuntimeSampler(10 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if telemetry.NewGauge("caligo.runtime.goroutines").Value() > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := telemetry.NewGauge("caligo.runtime.goroutines").Value(); v <= 0 {
		t.Errorf("goroutines gauge = %d after sampling", v)
	}
	if v := telemetry.NewGauge("caligo.runtime.heap.alloc.bytes").Value(); v <= 0 {
		t.Errorf("heap alloc gauge = %d after sampling", v)
	}
	// second sampler start is a no-op and its stop must not kill the first
	stop2 := StartRuntimeSampler(time.Millisecond)
	stop2()
	if !samplerRunning.Load() {
		t.Error("no-op stop shut down the primary sampler")
	}
	stop()
	if samplerRunning.Load() {
		t.Error("sampler still marked running after stop")
	}
}

func TestSampleRuntimeOnce(t *testing.T) {
	withTelemetry(t, true)
	telemetry.NewGauge("caligo.runtime.goroutines").Set(0)
	SampleRuntimeOnce()
	if v := telemetry.NewGauge("caligo.runtime.goroutines").Value(); v <= 0 {
		t.Errorf("goroutines gauge = %d after SampleRuntimeOnce", v)
	}
}
