package caliper

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"caligo/internal/attr"
	"caligo/internal/snapshot"
	"caligo/internal/testutil"
)

// TestBeginEndAllocFree: once a region's tree node and aggregation bucket
// exist, a Begin/End pair — two snapshots through timer, unpack, WHERE and
// DB.Update — allocates nothing, whether the region value is a string or an
// int (whose span name is formatted only when tracing is on). The value is
// boxed once, outside the measured calls: boxing is the caller's cost.
func TestBeginEndAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race instrumentation")
	}
	for _, value := range []any{"advec-cell", 1 << 20} {
		ch := mustChannel(t, Config{
			"services":        "event,timer,aggregate",
			"aggregate.key":   "function,region",
			"aggregate.ops":   "count,sum(time.duration)",
			"aggregate.where": "function",
		})
		th := ch.Thread()
		th.Begin("function", "main")
		pair := func() {
			if err := th.Begin("region", value); err != nil {
				t.Fatal(err)
			}
			if err := th.End("region"); err != nil {
				t.Fatal(err)
			}
		}
		pair()
		if avg := testing.AllocsPerRun(200, pair); avg != 0 {
			t.Errorf("Begin/End(%T) = %.2f allocs per pair, want 0", value, avg)
		}
		if got := ch.Snapshots(); got != 1+2*202 {
			t.Errorf("%d snapshots, want %d", got, 1+2*202)
		}
	}
}

// countsByKey flushes ch and returns the aggregate count per key, the key
// being the record without its aggregation results.
func countsByKey(t *testing.T, ch *Channel) map[string]int64 {
	t.Helper()
	rows, err := ch.Flush()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, r := range rows {
		var key snapshot.FlatRecord
		for _, e := range r {
			if e.Attr.Properties()&attr.Aggregatable == 0 {
				key = append(key, e)
			}
		}
		out[key.String()] += getInt(t, r, "aggregate.count")
	}
	return out
}

// TestFailedEndTakesNoSnapshot: an End that returns an error — no open
// region, or not the innermost one — leaves the snapshot count, the
// aggregation database and the inclusive-timer stack as they were.
func TestFailedEndTakesNoSnapshot(t *testing.T) {
	run := func(failing bool) (*Channel, uint64) {
		ch := mustChannel(t, Config{
			"services":        "event,timer,aggregate",
			"timer.inclusive": "true",
			"aggregate.key":   "outer,inner,closed",
			"aggregate.ops":   "count,sum(time.inclusive.duration)",
		})
		th := ch.Thread()
		th.Begin("closed", "c")
		th.End("closed")
		th.Begin("outer", "o")
		th.Begin("inner", "i")
		if failing {
			snaps, outs := ch.Snapshots(), ch.OutputRecords()
			if err := th.End("outer"); err == nil {
				t.Error("End of a region that is not innermost returned no error")
			}
			if err := th.End("closed"); err == nil {
				t.Error("End with no open region returned no error")
			}
			if ch.Snapshots() != snaps || th.Snapshots() != snaps || ch.OutputRecords() != outs {
				t.Errorf("failed Ends moved snapshots %d -> %d, output records %d -> %d",
					snaps, ch.Snapshots(), outs, ch.OutputRecords())
			}
		}
		if err := th.End("inner"); err != nil {
			t.Error(err)
		}
		if err := th.End("outer"); err != nil {
			t.Error(err)
		}
		return ch, ch.Snapshots()
	}
	plain, plainSnaps := run(false)
	failed, failedSnaps := run(true)
	if plainSnaps != failedSnaps {
		t.Errorf("%d snapshots with failed Ends, %d without", failedSnaps, plainSnaps)
	}
	want, got := countsByKey(t, plain), countsByKey(t, failed)
	if len(want) < 4 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("flushed counts with failed Ends %v, without %v", got, want)
	}
}

// TestTraceKeepsEveryBorrowedRecord: the record a processing callback gets
// lives in the thread's reused builder. Every snapshot here differs from
// the one before in both its node reference and its immediate entry, so a
// trace service that kept the borrowed slices would flush the last record
// over and over.
func TestTraceKeepsEveryBorrowedRecord(t *testing.T) {
	ch := mustChannel(t, Config{"services": "event,timer,trace", "timer.source": "virtual"})
	th := ch.Thread()
	th.Begin("outer", "o") // snapshot of an empty blackboard, no duration yet
	want := []string{"{}"}
	const n = 50
	for i := 0; i < n; i++ {
		th.AdvanceVirtualTime(int64(2*i + 1))
		th.Begin("r", i)
		want = append(want, fmt.Sprintf("{outer=o,time.duration=%d}", 2*i+1))
		th.AdvanceVirtualTime(int64(2*i + 2))
		th.End("r")
		want = append(want, fmt.Sprintf("{outer=o,r=%d,time.duration=%d}", i, 2*i+2))
	}
	rows, err := ch.Flush()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, r.String())
	}
	if !slices.Equal(got, want) {
		t.Errorf("flushed trace\n got %v\nwant %v", got, want)
	}
}

// TestRecorderBytesRepeat: the same program writes the same .cali bytes on
// every channel, also with several reference and several as-value
// attributes open at once (their order within a snapshot was a map's).
func TestRecorderBytesRepeat(t *testing.T) {
	dir := t.TempDir()
	write := func(name string) []byte {
		path := filepath.Join(dir, name)
		ch := mustChannel(t, Config{"services": "event,trace,recorder", "recorder.filename": path})
		names := []string{"ref.c", "ref.a", "ref.b", "val.b", "val.c", "val.a"}
		for i, n := range names {
			props := attr.Properties(0)
			if i >= 3 {
				props = attr.AsValue
			}
			if _, err := ch.CreateAttribute(n, attr.Int, props); err != nil {
				t.Fatal(err)
			}
		}
		th := ch.Thread()
		for _, n := range names {
			th.Begin(n, 0)
		}
		for i := 0; i < 200-len(names); i++ {
			th.Set(names[i%len(names)], i)
		}
		if got := ch.Snapshots(); got != 200 {
			t.Fatalf("%d snapshots, want 200", got)
		}
		if err := ch.FlushAndWrite(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first, second := write("first.cali"), write("second.cali")
	if !bytes.Equal(first, second) {
		t.Errorf("two channels running one program wrote different bytes (%d and %d)", len(first), len(second))
	}
}
