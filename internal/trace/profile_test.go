package trace

import (
	"bytes"
	"strings"
	"testing"
)

// TestProfileSumsPhases: spans opened on a profile sum per phase — the
// name after the last '.' — with span count, total, min and max time and
// the integer arguments; Add counts without a span; a nil profile is a
// plain span.
func TestProfileSumsPhases(t *testing.T) {
	prev := SetEnabled(false)
	t.Cleanup(func() { SetEnabled(prev) })
	before := len(Snapshot())

	var p Profile
	for rank := 0; rank < 3; rank++ {
		sp := p.Begin("pquery.read", rank)
		if !sp.Active() {
			t.Fatal("profile span inactive with tracing off")
		}
		sp.ArgInt("records", 10)
		sp.Arg("mode", "flush") // string args are labels, not stats
		sp.End()
		sp.End() // a second End records nothing
	}
	sp := p.Begin("query.read", 0)
	sp.ArgInt("bytes", 5)
	sp.End()
	p.Add("index", "fallback_stale", 1)
	p.Add("index", "fallback_stale", 2)
	var nilProf *Profile
	nilProf.Add("index", "x", 1)
	if sp := nilProf.Begin("query.read", 0); sp.Active() {
		t.Error("nil-profile span active with tracing off")
	}

	phases := p.Phases()
	if len(phases) != 2 || phases[0].Name != "read" || phases[1].Name != "index" {
		t.Fatalf("phases = %+v, want read then index", phases)
	}
	read := phases[0]
	if read.Spans != 4 || read.NS < read.MaxNS || read.MinNS > read.MaxNS || read.MinNS < 0 {
		t.Errorf("read = %+v, want 4 spans with min <= max <= total", read)
	}
	want := []Stat{{"records", 30}, {"bytes", 5}}
	if len(read.Stats) != 2 || read.Stats[0] != want[0] || read.Stats[1] != want[1] {
		t.Errorf("read stats = %+v, want %+v", read.Stats, want)
	}
	if idx := phases[1]; idx.Spans != 0 || len(idx.Stats) != 1 || idx.Stats[0] != (Stat{"fallback_stale", 3}) {
		t.Errorf("index = %+v, want fallback_stale=3 and no spans", idx)
	}
	// Phases is a copy
	phases[0].Stats[0].Value = -1
	if p.Phases()[0].Stats[0].Value != 30 {
		t.Error("Phases shares its stats with the profile")
	}
	if len(Snapshot()) != before {
		t.Errorf("tracing off, yet the ring got %d spans", len(Snapshot())-before)
	}
}

// TestProfileAndRingShareOneClock: with tracing on, a profile span lands in
// both sinks from the same readings — the ring's Dur is the profile's NS —
// and carries the profile's query ID into the Chrome export.
func TestProfileAndRingShareOneClock(t *testing.T) {
	withTracing(t, 64, func() {
		p := Profile{QID: 42}
		sp := p.Begin("query.merge", 2)
		sp.ArgInt("buckets", 7)
		dur := sp.End()
		spans := Snapshot()
		if len(spans) != 1 {
			t.Fatalf("ring holds %d spans, want 1", len(spans))
		}
		d := spans[0]
		if d.Name != "query.merge" || d.Rank != 2 || d.QID != 42 || len(d.Args()) != 1 {
			t.Errorf("ring span = %+v, want query.merge on rank 2, qid 42, one arg", d)
		}
		if m := p.Phases()[0]; d.Dur != dur || m.NS != dur || m.Spans != 1 {
			t.Errorf("ring dur %d, End %d, profile %+v: one span measured twice", d.Dur, dur, m)
		}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, spans); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `"args":{"buckets":"7","qid":"42"}`) {
			t.Errorf("chrome export lost the qid:\n%s", buf.String())
		}
	})
}

// TestProfileSpanZeroAlloc: once a phase and its stats exist, a profile
// span allocates nothing, tracing on or off.
func TestProfileSpanZeroAlloc(t *testing.T) {
	for _, on := range []bool{false, true} {
		withTracing(t, 64, func() {
			SetEnabled(on)
			var p Profile
			span := func() {
				sp := p.Begin("query.shard", 1)
				sp.ArgInt("records", 3)
				sp.End()
			}
			span()
			if allocs := testing.AllocsPerRun(1000, span); allocs != 0 {
				t.Errorf("tracing %v: profile span allocates %.1f objects/op, want 0", on, allocs)
			}
		})
	}
}
