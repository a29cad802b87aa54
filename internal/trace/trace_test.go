package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// setCapacity resizes the ring buffer, discarding buffered spans; n < 1
// is ignored.
func setCapacity(n int) {
	if n < 1 {
		return
	}
	ring.mu.Lock()
	defer ring.mu.Unlock()
	ring.slots = make([]SpanData, n)
	ring.size = 0
	ring.dropped = 0
}

// withTracing runs f with tracing enabled on a small fresh ring and
// restores the previous state afterwards.
func withTracing(t *testing.T, capacity int, f func()) {
	t.Helper()
	prev := SetEnabled(true)
	setCapacity(capacity)
	t.Cleanup(func() {
		SetEnabled(prev)
		setCapacity(defaultCapacity)
	})
	f()
}

func TestSpanLifecycle(t *testing.T) {
	withTracing(t, 64, func() {
		sp := BeginRank("phase.read", 3)
		sp.SetTid(2)
		sp.Arg("file", "a.cali")
		sp.ArgInt("records", 42)
		if !sp.Active() {
			t.Fatal("span inactive with tracing enabled")
		}
		sp.End()
		sp.End() // double End is a no-op

		spans := Snapshot()
		if len(spans) != 1 {
			t.Fatalf("got %d spans, want 1", len(spans))
		}
		d := spans[len(spans)-1]
		if d.Name != "phase.read" || d.Rank != 3 || d.Tid != 2 {
			t.Errorf("span = %+v, want name=phase.read rank=3 tid=2", d)
		}
		if d.Dur < 0 || d.Start < 0 {
			t.Errorf("negative timing: start=%d dur=%d", d.Start, d.Dur)
		}
		args := d.Args()
		if len(args) != 2 {
			t.Fatalf("got %d args, want 2", len(args))
		}
		if args[0].Key() != "file" || args[0].Value() != "a.cali" {
			t.Errorf("arg[0] = %s=%s", args[0].Key(), args[0].Value())
		}
		if args[1].Value() != "42" {
			t.Errorf("arg[1].Value() = %q, want \"42\"", args[1].Value())
		}
	})
}

func TestDisabledSpanIsInert(t *testing.T) {
	prev := SetEnabled(false)
	t.Cleanup(func() { SetEnabled(prev) })
	before := len(Snapshot())
	sp := Begin("nope")
	if sp.Active() {
		t.Error("span active with tracing disabled")
	}
	sp.Arg("k", "v")
	sp.ArgInt("n", 1)
	sp.End()
	if len(Snapshot()) != before {
		t.Errorf("disabled span recorded: %d spans buffered, want %d", len(Snapshot()), before)
	}
}

// TestDisabledZeroAlloc proves the kill-switched path allocates nothing:
// Begin returns a stack value and every method returns after one check.
func TestDisabledZeroAlloc(t *testing.T) {
	prev := SetEnabled(false)
	t.Cleanup(func() { SetEnabled(prev) })
	allocs := testing.AllocsPerRun(1000, func() {
		sp := BeginRank("hot", 1)
		sp.Arg("k", "v")
		sp.ArgInt("n", 7)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled span path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEnabledZeroAlloc proves the recording path is allocation-free too:
// completed spans copy into the preallocated ring and integer args stay
// numeric until export.
func TestEnabledZeroAlloc(t *testing.T) {
	withTracing(t, 64, func() {
		allocs := testing.AllocsPerRun(1000, func() {
			sp := BeginRank("hot", 1)
			sp.Arg("k", "v")
			sp.ArgInt("n", 7)
			sp.End()
		})
		if allocs != 0 {
			t.Errorf("enabled span path allocates %.1f objects/op, want 0", allocs)
		}
	})
}

func TestRingWrapAndDropped(t *testing.T) {
	withTracing(t, 4, func() {
		for i := 0; i < 10; i++ {
			sp := Begin("s")
			sp.ArgInt("i", int64(i))
			sp.End()
		}
		if len(Snapshot()) != 4 {
			t.Errorf("Len = %d, want 4", len(Snapshot()))
		}
		if Dropped() != 6 {
			t.Errorf("Dropped = %d, want 6", Dropped())
		}
		spans := Snapshot()
		if len(spans) != 4 {
			t.Fatalf("got %d spans, want 4", len(spans))
		}
		for i := 1; i < len(spans); i++ {
			if spans[i].Seq != spans[i-1].Seq+1 {
				t.Errorf("non-contiguous seq: %d after %d", spans[i].Seq, spans[i-1].Seq)
			}
		}
		if v := spans[3].Args()[0].Value(); v != "9" {
			t.Errorf("newest span i=%s, want 9", v)
		}
	})
}

func TestResetDiscards(t *testing.T) {
	withTracing(t, 8, func() {
		sp := Begin("x")
		sp.End()
		Reset()
		if len(Snapshot()) != 0 {
			t.Errorf("Len after Reset = %d, want 0", len(Snapshot()))
		}
		sp = Begin("y")
		sp.End()
		all := Snapshot()
		if len(all) != 1 || all[0].Name != "y" {
			t.Errorf("Snapshot after Reset = %v, want [y]", all)
		}
	})
}

// chromeTrace mirrors the exported JSON shape for validation.
type chromeTrace struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeTrace(t *testing.T) {
	withTracing(t, 64, func() {
		for rank := 0; rank < 3; rank++ {
			sp := BeginRank("pquery.read", rank)
			sp.ArgInt("records", int64(10*rank))
			sp.Arg("quote", `a"b\c`)
			sp.End()
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var tr chromeTrace
		if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
			t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
		}
		var meta, complete int
		pids := map[int]bool{}
		for _, e := range tr.TraceEvents {
			switch e.Ph {
			case "M":
				meta++
			case "X":
				complete++
				pids[e.Pid] = true
				if e.Ts < 0 || e.Dur < 0 {
					t.Errorf("negative ts/dur in %+v", e)
				}
				if e.Args["quote"] != `a"b\c` {
					t.Errorf("arg escaping lost: %q", e.Args["quote"])
				}
			default:
				t.Errorf("unexpected phase %q", e.Ph)
			}
		}
		if meta != 3 || complete != 3 {
			t.Errorf("events: %d metadata, %d complete; want 3 and 3", meta, complete)
		}
		for rank := 0; rank < 3; rank++ {
			if !pids[rank] {
				t.Errorf("missing process lane for rank %d", rank)
			}
		}
	})
}

func TestWriteReportSorted(t *testing.T) {
	withTracing(t, 64, func() {
		for _, n := range []string{"zeta", "alpha", "mid", "alpha"} {
			sp := Begin(n)
			sp.End()
		}
		var buf bytes.Buffer
		if err := WriteReport(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		ia := strings.Index(out, "alpha")
		im := strings.Index(out, "mid")
		iz := strings.Index(out, "zeta")
		if ia < 0 || im < 0 || iz < 0 || !(ia < im && im < iz) {
			t.Errorf("report not sorted by span name:\n%s", out)
		}
		if !strings.Contains(out, "count=2") {
			t.Errorf("alpha count missing:\n%s", out)
		}
	})
}

func TestFormatInt(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want string
	}{{0, "0"}, {7, "7"}, {-7, "-7"}, {1234567890, "1234567890"}, {-9223372036854775808, "-9223372036854775808"}} {
		if got := formatInt(tc.v); got != tc.want {
			t.Errorf("formatInt(%d) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// Overhead benchmarks: the cost of one instrumented phase boundary with
// the tracer off (the production default) and on. Fed into
// BENCH_trace.json by `make bench-json`.

func BenchmarkTraceOverheadDisabled(b *testing.B) {
	prev := SetEnabled(false)
	b.Cleanup(func() { SetEnabled(prev) })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := BeginRank("bench.phase", 0)
		sp.ArgInt("records", int64(i))
		sp.End()
	}
}

func BenchmarkTraceOverheadEnabled(b *testing.B) {
	prev := SetEnabled(true)
	b.Cleanup(func() {
		SetEnabled(prev)
		setCapacity(defaultCapacity)
	})
	setCapacity(1 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := BeginRank("bench.phase", 0)
		sp.ArgInt("records", int64(i))
		sp.End()
	}
}
