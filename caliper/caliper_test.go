package caliper

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
)

func mustChannel(t *testing.T, cfg Config) *Channel {
	t.Helper()
	ch, err := NewChannel(cfg)
	if err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	return ch
}

// getInt fetches a named int value from a record, failing the test if absent.
func getInt(t *testing.T, r snapshot.FlatRecord, name string) int64 {
	t.Helper()
	v, ok := r.GetByName(name)
	if !ok {
		t.Fatalf("record %s has no %q", r, name)
	}
	return v.AsInt()
}

func TestUnknownServiceRejected(t *testing.T) {
	if _, err := NewChannel(Config{"services": "frobnicator"}); err == nil {
		t.Error("unknown service should error")
	}
}

func TestListing1EndToEnd(t *testing.T) {
	// The paper's Listing 1 program with the scheme
	// AGGREGATE count, sum(time.duration) GROUP BY function, loop.iteration
	ch := mustChannel(t, Config{
		"services":      "event,timer,aggregate",
		"aggregate.key": "function,loop.iteration",
		"aggregate.ops": "count,sum(time.duration)",
	})
	th := ch.Thread()

	foo := func(int) {
		th.Begin("function", "foo")
		th.End("function")
	}
	bar := func(int) {
		th.Begin("function", "bar")
		th.End("function")
	}
	for i := 0; i < 4; i++ {
		th.Begin("loop.iteration", i)
		foo(1)
		foo(2)
		bar(1)
		th.End("loop.iteration")
	}
	rows, err := ch.Flush()
	if err != nil {
		t.Fatal(err)
	}
	// expected groups: (foo,i) and (bar,i) for i in 0..3, (none,i) from the
	// begin-loop.iteration and end-loop.iteration snapshots, and a (none,none)
	// group from the first/last events outside the loop.
	type key struct {
		fn string
		it string
	}
	got := map[key]int64{}
	for _, r := range rows {
		fn, _ := r.GetByName("function")
		it, _ := r.GetByName("loop.iteration")
		cnt := getInt(t, r, "aggregate.count")
		got[key{fn.String(), it.String()}] = cnt
	}
	for i := 0; i < 4; i++ {
		is := []string{"0", "1", "2", "3"}[i]
		// foo begins twice and ends twice per iteration: snapshots at
		// begin(foo) carry (none,i); snapshots at end(foo) carry (foo,i)
		if got[key{"foo", is}] != 2 {
			t.Errorf("(foo,%s) count = %d, want 2", is, got[key{"foo", is}])
		}
		if got[key{"bar", is}] != 1 {
			t.Errorf("(bar,%s) count = %d, want 1", is, got[key{"bar", is}])
		}
		// per iteration: begin(iter), 2x begin(foo), 1x begin(bar),
		// end(iter) events all carry (none, i): that's 1+3+1 = 5... but
		// begin(iter) is pre-update so it carries (none, none) or the
		// previous iteration!
	}
	// every function event must have accumulated some runtime
	for _, r := range rows {
		if fn, ok := r.GetByName("function"); ok && fn.String() != "" {
			if _, ok := r.GetByName("sum#time.duration"); !ok {
				t.Errorf("row %s lacks sum#time.duration", r)
			}
		}
	}
}

func TestExclusiveTimeAttribution(t *testing.T) {
	// Time spent inside a region must be attributed to the region; time
	// around it to the parent. Work ~5ms in foo, ~5ms in main outside foo.
	ch := mustChannel(t, Config{
		"services":      "event,timer,aggregate",
		"aggregate.key": "function",
		"aggregate.ops": "sum(time.duration)",
	})
	th := ch.Thread()
	th.Begin("function", "main")
	time.Sleep(3 * time.Millisecond) // attributed to main
	th.Begin("function", "foo")
	time.Sleep(6 * time.Millisecond) // attributed to main/foo
	th.End("function")
	time.Sleep(3 * time.Millisecond) // attributed to main
	th.End("function")

	rows, err := ch.Flush()
	if err != nil {
		t.Fatal(err)
	}
	var mainNs, fooNs int64
	for _, r := range rows {
		path := r.PathOf(mustFind(t, ch, "function").ID(), "/")
		sum, ok := r.GetByName("sum#time.duration")
		if !ok {
			continue
		}
		switch path {
		case "main":
			mainNs = sum.AsInt()
		case "main/foo":
			fooNs = sum.AsInt()
		}
	}
	if mainNs < 4_000_000 || mainNs > 20_000_000 {
		t.Errorf("main time = %v ns, want ~6ms", mainNs)
	}
	if fooNs < 4_000_000 || fooNs > 20_000_000 {
		t.Errorf("foo time = %v ns, want ~6ms", fooNs)
	}
	if fooNs < mainNs/2 || fooNs > mainNs*2 {
		t.Errorf("attribution skewed: main=%d foo=%d", mainNs, fooNs)
	}
}

func mustFind(t *testing.T, ch *Channel, name string) attr.Attribute {
	t.Helper()
	a, ok := ch.Registry().Find(name)
	if !ok {
		t.Fatalf("attribute %q not registered", name)
	}
	return a
}

func TestTraceModeStoresEverySnapshot(t *testing.T) {
	ch := mustChannel(t, Config{"services": "event,trace"})
	th := ch.Thread()
	for i := 0; i < 10; i++ {
		th.Begin("region", "r")
		th.End("region")
	}
	if got := ch.TraceLength(); got != 20 { // one snapshot per begin + end
		t.Errorf("TraceLength = %d, want 20", got)
	}
	rows, err := ch.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Errorf("flushed %d records, want 20", len(rows))
	}
	if ch.TraceLength() != 0 {
		t.Error("trace buffer not drained by flush")
	}
}

func TestAggregationSmallerThanTrace(t *testing.T) {
	// Table I's core claim: aggregation produces far fewer output records
	// than tracing for the same snapshot stream.
	run := func(services string) (snaps uint64, outs int) {
		ch := mustChannel(t, Config{
			"services":      services,
			"aggregate.key": "region",
			"aggregate.ops": "count",
		})
		th := ch.Thread()
		for i := 0; i < 500; i++ {
			th.Begin("region", []string{"a", "b", "c"}[i%3])
			th.End("region")
		}
		rows, err := ch.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return ch.Snapshots(), len(rows)
	}
	snapsT, outT := run("event,trace")
	snapsA, outA := run("event,aggregate")
	if snapsT != snapsA {
		t.Errorf("snapshot counts differ: %d vs %d", snapsT, snapsA)
	}
	if outT != 1000 {
		t.Errorf("trace outputs = %d, want 1000", outT)
	}
	if outA != 4 { // groups: a, b, c, (none: begin events carry parent state)
		t.Errorf("aggregate outputs = %d, want 4", outA)
	}
}

func TestSetSemantics(t *testing.T) {
	ch := mustChannel(t, Config{
		"services":      "event,aggregate",
		"aggregate.key": "iteration",
		"aggregate.ops": "count",
	})
	th := ch.Thread()
	ia, _ := ch.CreateAttribute("iteration", attr.Int, 0)
	_ = ia
	for i := 0; i < 5; i++ {
		th.Set("iteration", i)
		th.Snapshot()
	}
	rows, _ := ch.Flush()
	// groups: one per iteration value from explicit snapshots, plus the
	// Set-triggered snapshots (pre-update): iteration i's Set snapshot
	// carries i-1
	counts := map[string]int64{}
	for _, r := range rows {
		it, _ := r.GetByName("iteration")
		c, _ := r.GetByName("aggregate.count")
		counts[it.String()] = c.AsInt()
	}
	// values 0..3 get 2 snapshots (explicit + next Set's pre-update), 4 gets 1
	for _, v := range []string{"0", "1", "2", "3"} {
		if counts[v] != 2 {
			t.Errorf("iteration %s count = %d, want 2", v, counts[v])
		}
	}
	if counts["4"] != 1 {
		t.Errorf("iteration 4 count = %d, want 1", counts["4"])
	}
}

func TestMultiThreadAggregationMergesAtFlush(t *testing.T) {
	ch := mustChannel(t, Config{
		"services":      "event,aggregate",
		"aggregate.key": "region",
		"aggregate.ops": "count",
	})
	const threads, iters = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := ch.Thread()
			for i := 0; i < iters; i++ {
				th.Begin("region", "r")
				th.End("region")
			}
		}()
	}
	wg.Wait()
	rows, err := ch.Flush()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range rows {
		total += getInt(t, r, "aggregate.count")
	}
	if total != threads*iters*2 {
		t.Errorf("total count = %d, want %d", total, threads*iters*2)
	}
	// the "r" group must aggregate across all threads into one record
	rGroups := 0
	for _, r := range rows {
		if v, ok := r.GetByName("region"); ok && v.String() == "r" {
			rGroups++
		}
	}
	if rGroups != 1 {
		t.Errorf("r appears in %d rows, want 1 (merged across threads)", rGroups)
	}
}

func TestSamplerProducesSnapshots(t *testing.T) {
	ch := mustChannel(t, Config{
		"services":          "sampler,timer,aggregate",
		"sampler.frequency": "1000", // 1 kHz for a fast test
		"aggregate.key":     "phase",
		"aggregate.ops":     "count,sum(time.duration)",
	})
	th := ch.Thread()
	th.Begin("phase", "compute")
	time.Sleep(60 * time.Millisecond)
	th.End("phase")
	rows, err := ch.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if ch.Snapshots() < 20 {
		t.Errorf("sampler took only %d snapshots in 60ms at 1kHz", ch.Snapshots())
	}
	found := false
	for _, r := range rows {
		if v, ok := r.GetByName("phase"); ok && v.String() == "compute" {
			found = true
			if getInt(t, r, "aggregate.count") < 10 {
				t.Errorf("compute sample count = %d, want >= 10", getInt(t, r, "aggregate.count"))
			}
		}
	}
	if !found {
		t.Error("no samples attributed to the compute phase")
	}
}

func TestSamplerConcurrentWithAnnotations(t *testing.T) {
	// run annotations and sampling concurrently under the race detector
	ch := mustChannel(t, Config{
		"services":          "sampler,event,timer,aggregate",
		"sampler.frequency": "2000",
		"aggregate.key":     "region",
		"aggregate.ops":     "count,sum(time.duration)",
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := ch.Thread()
			for i := 0; i < 300; i++ {
				th.Begin("region", "busy")
				th.End("region")
			}
		}()
	}
	wg.Wait()
	rows, err := ch.Flush() // stops the sampler first
	if err != nil {
		t.Fatal(err)
	}
	// every snapshot, owner- or sampler-triggered, went through the
	// thread's one scratch record and was aggregated exactly once
	var sum uint64
	for _, r := range rows {
		sum += uint64(getInt(t, r, "aggregate.count"))
	}
	if sum != ch.Snapshots() || sum < 4*600 {
		t.Errorf("aggregated %d snapshots, took %d (at least %d from events)", sum, ch.Snapshots(), 4*600)
	}
}

func TestInvalidSamplerFrequency(t *testing.T) {
	if _, err := NewChannel(Config{"services": "sampler", "sampler.frequency": "-5"}); err == nil {
		t.Error("negative frequency should error")
	}
	if _, err := NewChannel(Config{"services": "sampler", "sampler.frequency": "abc"}); err == nil {
		t.Error("non-numeric frequency should error")
	}
}

func TestInvalidAggregationScheme(t *testing.T) {
	if _, err := NewChannel(Config{
		"services":      "aggregate",
		"aggregate.ops": "frobnicate(x)",
	}); err == nil {
		t.Error("bad ops should error")
	}
	if _, err := NewChannel(Config{
		"services":      "aggregate",
		"aggregate.key": "x,x",
	}); err == nil {
		t.Error("duplicate key should error")
	}
}

func TestAggregateWhereFilter(t *testing.T) {
	ch := mustChannel(t, Config{
		"services":        "event,aggregate",
		"aggregate.key":   "region",
		"aggregate.ops":   "count",
		"aggregate.where": "not(mpi.function)",
	})
	th := ch.Thread()
	th.Begin("region", "compute")
	th.Begin("mpi.function", "MPI_Barrier")
	th.End("mpi.function")
	th.End("region")
	rows, _ := ch.Flush()
	for _, r := range rows {
		if len(r.ValuesOf(mustFind(t, ch, "mpi.function").ID())) > 0 {
			t.Errorf("filtered attribute leaked: %s", r)
		}
	}
}

// TestAggregateWhereAcrossThreads filters on an attribute no thread has
// registered when the channel starts: every thread's compiled WHERE then
// resolves it lazily, concurrently with the others (run under -race).
func TestAggregateWhereAcrossThreads(t *testing.T) {
	ch := mustChannel(t, Config{
		"services":        "event,aggregate",
		"aggregate.key":   "region",
		"aggregate.ops":   "count",
		"aggregate.where": "region = hot",
	})
	const threads, iters = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := ch.Thread()
			for i := 0; i < iters; i++ {
				for _, region := range []string{"hot", "cold"} {
					th.Begin("region", region)
					th.End("region")
				}
			}
		}()
	}
	wg.Wait()
	rows, err := ch.Flush()
	if err != nil {
		t.Fatal(err)
	}
	// of each begin/end pair only the end snapshot carries the region
	if len(rows) != 1 || getInt(t, rows[0], "aggregate.count") != threads*iters {
		t.Errorf("rows = %v, want one region=hot row counting %d", rows, threads*iters)
	}
}

func TestRecorderWritesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.cali")
	ch := mustChannel(t, Config{
		"services":          "event,timer,aggregate,recorder",
		"aggregate.key":     "region",
		"aggregate.ops":     "count,sum(time.duration)",
		"recorder.filename": path,
	})
	th := ch.Thread()
	th.Begin("region", "work")
	th.End("region")
	if err := ch.FlushAndWrite(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "__rec=ctx") {
		t.Errorf("output file lacks records:\n%s", data)
	}
	// and it must be readable back
	rd := calformat.NewReader(strings.NewReader(string(data)), attr.NewRegistry(), contexttree.New())
	recs, err := rd.ReadAll()
	if err != nil || len(recs) == 0 {
		t.Fatalf("read back: %v (%d records)", err, len(recs))
	}
}

func TestRecorderRequiresFilename(t *testing.T) {
	if _, err := NewChannel(Config{"services": "recorder"}); err == nil {
		t.Error("recorder without filename should error")
	}
}

func TestFlushAndWriteWithoutRecorder(t *testing.T) {
	ch := mustChannel(t, Config{"services": "event,trace"})
	if err := ch.FlushAndWrite(); err == nil {
		t.Error("FlushAndWrite without recorder should error")
	}
}

func TestInclusiveDuration(t *testing.T) {
	ch := mustChannel(t, Config{
		"services":        "event,timer,aggregate",
		"timer.inclusive": "true",
		"aggregate.key":   "function",
		"aggregate.ops":   "max(time.inclusive.duration)",
	})
	th := ch.Thread()
	th.Begin("function", "outer")
	time.Sleep(2 * time.Millisecond)
	th.Begin("function", "inner")
	time.Sleep(2 * time.Millisecond)
	th.End("function")
	time.Sleep(2 * time.Millisecond)
	th.End("function")
	rows, _ := ch.Flush()
	var outerIncl, innerIncl int64
	fnAttr := mustFind(t, ch, "function")
	for _, r := range rows {
		if v, ok := r.GetByName("max#time.inclusive.duration"); ok {
			switch r.PathOf(fnAttr.ID(), "/") {
			case "outer":
				outerIncl = v.AsInt()
			case "outer/inner":
				innerIncl = v.AsInt()
			}
		}
	}
	if outerIncl < 5_000_000 {
		t.Errorf("outer inclusive = %d ns, want >= ~6ms", outerIncl)
	}
	if innerIncl < 1_500_000 || innerIncl >= outerIncl {
		t.Errorf("inner inclusive = %d ns (outer %d)", innerIncl, outerIncl)
	}
}

func TestErrorPaths(t *testing.T) {
	ch := mustChannel(t, Config{"services": ""})
	th := ch.Thread()
	if err := th.End("nonexistent"); err == nil {
		t.Error("End of unknown attribute should error")
	}
	th.Begin("s", "x")
	if err := th.Begin("s", struct{}{}); err != nil {
		// struct stringifies; should coerce fine
		t.Errorf("stringified begin failed: %v", err)
	}
	// type conflict: attribute created as string, then int value is coerced
	if err := th.Begin("s", 42); err != nil {
		t.Errorf("int into string attr should coerce: %v", err)
	}
	// attribute created as int cannot take a non-numeric string
	th2 := ch.Thread()
	th2.Begin("n", 1)
	if err := th2.Begin("n", "notanumber"); err == nil {
		t.Error("non-numeric into int attr should error")
	}
}

func TestChannelSnapshotCounting(t *testing.T) {
	ch := mustChannel(t, Config{"services": "event"})
	th := ch.Thread()
	th.Begin("a", "1")
	th.End("a")
	th.Snapshot()
	if ch.Snapshots() != 3 || th.Snapshots() != 3 {
		t.Errorf("snapshots = %d/%d, want 3/3", ch.Snapshots(), th.Snapshots())
	}
}

func TestSkipEventsSuppressesTriggers(t *testing.T) {
	ch := mustChannel(t, Config{"services": "event"})
	ch.CreateAttribute("quiet", attr.String, attr.Nested|attr.SkipEvents)
	th := ch.Thread()
	th.Begin("quiet", "x")
	th.End("quiet")
	if ch.Snapshots() != 0 {
		t.Errorf("SkipEvents attribute triggered %d snapshots", ch.Snapshots())
	}
}

func TestOutputRecordsWithoutAggregate(t *testing.T) {
	ch := mustChannel(t, Config{"services": "event,trace"})
	if ch.OutputRecords() != 0 {
		t.Error("OutputRecords without aggregate service should be 0")
	}
}
