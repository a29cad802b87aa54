package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// WriteChromeTrace writes spans as Chrome trace-event JSON (the "JSON
// Array Format" both chrome://tracing and Perfetto load): one complete
// ("X") event per span with microsecond timestamps, pid = the span's
// emulated MPI rank (so every rank gets its own process lane), tid = the
// span's thread index, and the span attributes as event args. A
// process_name metadata event labels each rank lane. Output is
// deterministic: events follow span completion order, lanes are sorted.
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	bw := &errWriter{w: w}
	bw.str(`{"traceEvents":[`)

	// one process_name metadata event per rank lane, sorted by rank
	ranks := map[int32]bool{}
	for i := range spans {
		ranks[spans[i].Rank] = true
	}
	sorted := make([]int, 0, len(ranks))
	for r := range ranks {
		sorted = append(sorted, int(r))
	}
	sort.Ints(sorted)
	first := true
	for _, r := range sorted {
		if !first {
			bw.str(",")
		}
		first = false
		bw.str(fmt.Sprintf(
			`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
			r, jstr(fmt.Sprintf("rank %d", r))))
	}

	for i := range spans {
		d := &spans[i]
		if !first {
			bw.str(",")
		}
		first = false
		bw.str(`{"name":`)
		bw.str(jstr(d.Name))
		bw.str(`,"cat":"caligo","ph":"X","ts":`)
		bw.str(us(d.Start))
		bw.str(`,"dur":`)
		bw.str(us(d.Dur))
		bw.str(`,"pid":`)
		bw.str(strconv.Itoa(int(d.Rank)))
		bw.str(`,"tid":`)
		bw.str(strconv.Itoa(int(d.Tid)))
		if args := d.Args(); len(args) > 0 || d.QID != 0 {
			bw.str(`,"args":{`)
			for j, a := range args {
				if j > 0 {
					bw.str(",")
				}
				bw.str(jstr(a.Key()))
				bw.str(":")
				bw.str(jstr(a.Value()))
			}
			if d.QID != 0 {
				if len(args) > 0 {
					bw.str(",")
				}
				bw.str(`"qid":`)
				bw.str(jstr(strconv.FormatUint(d.QID, 10)))
			}
			bw.str("}")
		}
		bw.str("}")
	}
	bw.str(`],"displayTimeUnit":"ms"}` + "\n")
	return bw.err
}

// WriteTrace writes the currently buffered spans as Chrome trace JSON.
func WriteTrace(w io.Writer) error { return WriteChromeTrace(w, Snapshot()) }

// us renders nanoseconds as a microsecond JSON number with nanosecond
// precision (Chrome trace timestamps are microseconds).
func us(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64)
}

// jstr renders s as a JSON string (encoding/json handles escaping and
// invalid UTF-8).
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `""`
	}
	return string(b)
}

// errWriter latches the first write error so the export reads linearly.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) str(s string) {
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

// WriteReport writes a deterministic plain-text summary of the buffered
// spans: one line per span name (sorted), with count and total/min/max
// duration. The cali tools print it next to the telemetry report.
func WriteReport(w io.Writer) error {
	spans := Snapshot()
	var byName Profile // one "phase" per full span name
	for i := range spans {
		byName.add(spans[i].Name, spans[i].Dur, nil)
	}
	names := byName.phases
	sort.Slice(names, func(i, j int) bool { return names[i].Name < names[j].Name })
	if _, err := fmt.Fprintf(w, "span tracing (%d spans buffered, %d dropped, collection enabled=%v):\n",
		len(spans), Dropped(), Enabled()); err != nil {
		return err
	}
	for _, a := range names {
		if _, err := fmt.Fprintf(w, "  %-44s count=%-6d total=%-12v min=%-12v max=%v\n",
			a.Name, a.Spans, time.Duration(a.NS), time.Duration(a.MinNS), time.Duration(a.MaxNS)); err != nil {
			return err
		}
	}
	return nil
}
