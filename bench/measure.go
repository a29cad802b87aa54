package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// result is what one operation produced, for the untimed check.
type result struct {
	out      []byte // rendered query output (nil for runtime-stream)
	rows     int    // result rows, or flushed output records
	outBytes int64  // bytes the operation produced (rendered, or written to disk)
	units    int64  // per-record denominator of this op (records, or snapshots)
}

// workload is one set of inputs plus the operation a user performs on it.
type workload interface {
	name() string
	// setup generates the inputs under dir and computes the expected
	// outputs with the reference evaluator.
	setup(dir string, seed uint64, tiny bool) error
	// prepare is untimed work that must precede every op (nil-op for most).
	prepare() error
	// op is the timed operation, exactly as a user performs it.
	op() (result, error)
	// check verifies op's result against the reference and fills in what
	// only the check learns (the rows of a file read back); untimed.
	check(*result) error
	// layers replays the op stage by stage under the tracer for about
	// budget, and returns this workload's per-layer metrics and the median
	// summed stage time of a replay in ms.
	layers(t *tracer, budget time.Duration) (metrics map[string]float64, stagedMS float64, err error)
	// comparisons lists the ratios the traced run measures by alternating
	// two variants of the workload's op.
	comparisons() []comparison
}

// comparison is a ratio of two operations' median times, measured by
// alternating them so both meet the same host conditions.
type comparison struct {
	metric   string       // reported: median(num) / median(den)
	num, den func() error // the two operations
	denMS    string       // if set, also report median(den) in ms under this name
}

// expectation is the reference evaluator's verdict on a query workload.
type expectation struct {
	hash [sha256.Size]byte
	rows int
	text []byte // kept to show the first differing line on a mismatch
}

func expect(rows []refRow) expectation {
	text := renderTable(rows)
	return expectation{hash: sha256.Sum256(text), rows: len(rows), text: text}
}

func (e expectation) check(r result) error {
	if r.rows != e.rows {
		return fmt.Errorf("%d rows, reference has %d", r.rows, e.rows)
	}
	if sha256.Sum256(r.out) != e.hash {
		return fmt.Errorf("output differs from reference: %s", firstDiff(r.out, e.text))
	}
	return nil
}

func firstDiff(got, want []byte) string {
	line := 1
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("line %d, byte %d", line, i)
		}
		if got[i] == '\n' {
			line++
		}
	}
	return fmt.Sprintf("lengths %d and %d", len(got), len(want))
}

// opStats accumulates the timed operations of one workload in one run.
type opStats struct {
	rounds       [][]float64 // per round: op wall times, ms
	mallocs      uint64
	allocBytes   uint64
	units        int64
	gcCycles     uint32
	gcPauseNS    uint64
	heapPeak     uint64
	attempted    int
	failed       int
	firstFailure error
	last         result
}

// timedOp runs one prepare → op → check cycle and records it into the
// current round. Only op is inside the timed and heap-counted window;
// ReadMemStats stops the world, so it stays outside the clock.
func (s *opStats) timedOp(w workload) {
	s.attempted++
	fail := func(err error) {
		s.failed++
		if s.firstFailure == nil {
			s.firstFailure = fmt.Errorf("%s: op %d: %w", w.name(), s.attempted, err)
		}
	}
	if err := w.prepare(); err != nil {
		fail(err)
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err := w.op()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err == nil {
		err = w.check(&res)
	}
	if err != nil {
		fail(err)
		return
	}
	r := len(s.rounds) - 1
	s.rounds[r] = append(s.rounds[r], float64(elapsed.Nanoseconds())/1e6)
	s.mallocs += m1.Mallocs - m0.Mallocs
	s.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	s.units += res.units
	s.gcCycles += m1.NumGC - m0.NumGC
	s.gcPauseNS += m1.PauseTotalNs - m0.PauseTotalNs
	s.heapPeak = max(s.heapPeak, m1.HeapAlloc)
	s.last = res
}

// round runs closed-loop operations — the next starts when the previous
// returned — for the given slice of time, and at least minOps of them.
func (s *opStats) round(w workload, slice time.Duration, minOps int) {
	runtime.GC()
	s.rounds = append(s.rounds, nil)
	start := time.Now()
	for n := 0; n < minOps || time.Since(start) < slice; n++ {
		s.timedOp(w)
	}
}

func (s *opStats) samples() []float64 {
	var all []float64
	for _, r := range s.rounds {
		all = append(all, r...)
	}
	return all
}

// roundMedians returns the median op time of every round that completed
// an operation.
func (s *opStats) roundMedians() []float64 {
	var meds []float64
	for _, r := range s.rounds {
		if len(r) > 0 {
			meds = append(meds, median(r))
		}
	}
	return meds
}

// bestRoundMedian is op_ms: the lowest of the per-round medians. On a
// shared host a slow spell lifts whole rounds; the quietest round is the
// statistic that repeats best.
func (s *opStats) bestRoundMedian() float64 { return quantile(s.roundMedians(), 0) }

// roundSpread is (highest − lowest) round median over the lowest.
func (s *opStats) roundSpread() float64 {
	meds := s.roundMedians()
	if len(meds) == 0 {
		return 0
	}
	lo, hi := quantile(meds, 0), quantile(meds, 1)
	return (hi - lo) / lo
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile of v (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// replayUntil repeats once — one staged replay, returning the time its
// stages add up to — until the deadline, at least twice, and returns the
// median of those times in ms.
func replayUntil(deadline time.Time, once func() (stagedNS int64, err error)) (float64, error) {
	var staged []float64
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		ns, err := once()
		if err != nil {
			return 0, err
		}
		staged = append(staged, float64(ns)/1e6)
	}
	return median(staged), nil
}
