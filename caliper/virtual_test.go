package caliper

import (
	"os"
	"testing"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
)

func TestVirtualTimerSource(t *testing.T) {
	ch := mustChannel(t, Config{
		"services":      "event,timer,aggregate",
		"timer.source":  "virtual",
		"aggregate.key": "region",
		"aggregate.ops": "sum(time.duration),count",
	})
	if !ch.VirtualTimer() {
		t.Fatal("VirtualTimer() should be true")
	}
	th := ch.Thread()
	th.Begin("region", "a")
	th.AdvanceVirtualTime(1000)
	th.End("region") // snapshot: duration 1000 attributed to region a
	th.AdvanceVirtualTime(500)
	th.Begin("region", "b") // snapshot: 500 attributed to (no region)
	th.AdvanceVirtualTime(2000)
	th.End("region")

	rows, err := ch.Flush()
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]int64{}
	for _, r := range rows {
		region, _ := r.GetByName("region")
		if v, ok := r.GetByName("sum#time.duration"); ok {
			sums[region.String()] += v.AsInt()
		}
	}
	if sums["a"] != 1000 {
		t.Errorf("region a = %d ns, want exactly 1000 (virtual time is deterministic)", sums["a"])
	}
	if sums["b"] != 2000 {
		t.Errorf("region b = %d ns, want exactly 2000", sums["b"])
	}
	if sums[""] != 500 {
		t.Errorf("outside regions = %d ns, want exactly 500", sums[""])
	}
}

func TestVirtualTimeMonotonic(t *testing.T) {
	ch := mustChannel(t, Config{"services": "timer", "timer.source": "virtual"})
	th := ch.Thread()
	th.SetVirtualTime(100)
	th.SetVirtualTime(50) // must not go backwards
	if th.virtNow != 100 {
		t.Errorf("VirtualTime = %d, want 100", th.virtNow)
	}
	th.AdvanceVirtualTime(-5) // negative advance ignored
	if th.virtNow != 100 {
		t.Errorf("VirtualTime = %d after negative advance", th.virtNow)
	}
	th.AdvanceVirtualTime(25)
	if th.virtNow != 125 {
		t.Errorf("VirtualTime = %d, want 125", th.virtNow)
	}
}

func TestUnknownTimerSourceRejected(t *testing.T) {
	if _, err := NewChannel(Config{"services": "timer", "timer.source": "quartz"}); err == nil {
		t.Error("unknown timer.source should error")
	}
}

func TestVirtualInclusiveDuration(t *testing.T) {
	ch := mustChannel(t, Config{
		"services":        "event,timer,aggregate",
		"timer.source":    "virtual",
		"timer.inclusive": "true",
		"aggregate.key":   "region",
		"aggregate.ops":   "max(time.inclusive.duration)",
	})
	th := ch.Thread()
	th.Begin("region", "outer")
	th.AdvanceVirtualTime(100)
	th.Begin("region", "inner")
	th.AdvanceVirtualTime(200)
	th.End("region")
	th.AdvanceVirtualTime(100)
	th.End("region")
	rows, _ := ch.Flush()
	region, _ := ch.Registry().Find("region")
	var outer, inner int64
	for _, r := range rows {
		if v, ok := r.GetByName("max#time.inclusive.duration"); ok {
			switch r.PathOf(region.ID(), "/") {
			case "outer":
				outer = v.AsInt()
			case "outer/inner":
				inner = v.AsInt()
			}
		}
	}
	if outer != 400 {
		t.Errorf("outer inclusive = %d, want exactly 400", outer)
	}
	if inner != 200 {
		t.Errorf("inner inclusive = %d, want exactly 200", inner)
	}
}

func TestMultipleChannelsIndependent(t *testing.T) {
	// two channels with different schemes observe the same program
	// independently (the paper's multiple-configuration capability)
	chA := mustChannel(t, Config{
		"services":      "event,aggregate",
		"aggregate.key": "region",
		"aggregate.ops": "count",
	})
	chB := mustChannel(t, Config{
		"services": "event,trace",
	})
	thA, thB := chA.Thread(), chB.Thread()
	for i := 0; i < 5; i++ {
		thA.Begin("region", "r")
		thB.Begin("region", "r")
		thA.End("region")
		thB.End("region")
	}
	rowsA, _ := chA.Flush()
	rowsB, _ := chB.Flush()
	if len(rowsA) >= len(rowsB) {
		t.Errorf("aggregated channel (%d rows) should be smaller than trace channel (%d rows)",
			len(rowsA), len(rowsB))
	}
	// registries are independent
	a1, _ := chA.Registry().Find("region")
	b1, _ := chB.Registry().Find("region")
	if !a1.IsValid() || !b1.IsValid() {
		t.Fatal("region attribute missing")
	}
}

func TestFlushTwiceDrains(t *testing.T) {
	ch := mustChannel(t, Config{
		"services":      "event,aggregate",
		"aggregate.key": "region",
		"aggregate.ops": "count",
	})
	th := ch.Thread()
	th.Begin("region", "x")
	th.End("region")
	first, err := ch.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("first flush empty")
	}
	second, err := ch.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 0 {
		t.Errorf("second flush returned %d rows, want 0 (aggregation drains)", len(second))
	}
	// new activity after a flush is captured again
	th.Begin("region", "y")
	th.End("region")
	third, _ := ch.Flush()
	if len(third) == 0 {
		t.Error("post-flush activity lost")
	}
}

func TestThreadUpdatesCounter(t *testing.T) {
	ch := mustChannel(t, Config{"services": ""})
	th := ch.Thread()
	th.Begin("a", "1")
	th.Set("b", 2)
	th.End("a")
	if th.Updates() != 3 {
		t.Errorf("Updates = %d, want 3", th.Updates())
	}
}

// TestChannelTreeAccessor: Begin adds the region to the channel's context
// tree.
func TestChannelTreeAccessor(t *testing.T) {
	ch := mustChannel(t, Config{"services": "event"})
	th := ch.Thread()
	th.Begin("region", "x")
	if ch.tree.Len() == 0 {
		t.Error("context tree should have nodes after Begin")
	}
	th.End("region")
}

func TestGlobalsRecorded(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/g.cali"
	ch := mustChannel(t, Config{
		"services":          "event,aggregate,recorder",
		"aggregate.key":     "region",
		"aggregate.ops":     "count",
		"recorder.filename": path,
	})
	if err := ch.SetGlobal("experiment", "triple-point"); err != nil {
		t.Fatal(err)
	}
	if err := ch.SetGlobal("problem.size", 640); err != nil {
		t.Fatal(err)
	}
	// overwriting a global replaces its value
	if err := ch.SetGlobal("problem.size", 1280); err != nil {
		t.Fatal(err)
	}
	th := ch.Thread()
	th.Begin("region", "r")
	th.End("region")
	if err := ch.FlushAndWrite(); err != nil {
		t.Fatal(err)
	}
	g := ch.Globals()
	if len(g) != 2 {
		t.Fatalf("globals = %v", g)
	}
	// read the file back and verify the globals round-trip
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd := calformat.NewReader(f, attr.NewRegistry(), contexttree.New())
	if _, err := rd.ReadAll(); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range rd.Globals() {
		got[e.Attr.Name()] = e.Value.String()
	}
	if got["experiment"] != "triple-point" || got["problem.size"] != "1280" {
		t.Errorf("globals round trip = %v", got)
	}
}
