package obs

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
)

// Structured logging for the aggregation service, on stdlib log/slog,
// with the same operating posture as the telemetry layer:
//
//   - Kill-switched: logging is off by default, and a disabled logger
//     costs one atomic load in Handler.Enabled — instrumented code can
//     call slog's Info/Warn/Error unconditionally.
//   - Per-subsystem: Logger("query"), Logger("rnet"), ... return loggers
//     tagged with a subsystem attribute, so one stream multiplexes the
//     whole pipeline and stays filterable.
//   - Flight recorder: every record (when enabled) is retained as one
//     JSON line in a fixed-size ring, dumpable via /debug/log or
//     WriteFlightRecorder — so after a failure the last N events are
//     available even when no sink was configured.
//   - Swappable sink: SetLogOutput directs a JSON or text rendering of
//     the stream to an io.Writer (stderr, a file, a shipper); handed-out
//     loggers observe the change immediately.

// logEnabled is the logging kill switch, independent of the telemetry
// switch (metrics without logs and logs without metrics are both valid
// deployments).
var logEnabled atomic.Bool

// EnableLogging turns structured logging on.
func EnableLogging() { logEnabled.Store(true) }

// SetLogEnabled sets the logging kill switch and returns the previous
// state, for scoped enablement in tests and tools.
func SetLogEnabled(on bool) (previous bool) { return logEnabled.Swap(on) }

// LogFormat selects a sink rendering.
type LogFormat int

const (
	// LogJSON renders the sink stream as JSON lines (slog.JSONHandler).
	LogJSON LogFormat = iota
	// LogText renders the sink stream as logfmt-style text
	// (slog.TextHandler).
	LogText
)

// logConfig is the swappable logging backend: the flight-recorder
// handler (always present) plus an optional sink handler. sink and
// format are retained so level and output reconfigure independently.
type logConfig struct {
	handlers []slog.Handler
	level    slog.Level
	sink     io.Writer
	format   LogFormat
}

var logCfg atomic.Pointer[logConfig]

// recorder is the process-global flight recorder ring.
var recorder = newFlightRecorder(defaultFlightRecorderCap)

const defaultFlightRecorderCap = 256

func init() {
	resetLogConfig(nil, LogJSON, slog.LevelInfo)
}

// resetLogConfig rebuilds the handler set. sink == nil means flight
// recorder only.
func resetLogConfig(sink io.Writer, format LogFormat, level slog.Level) {
	opts := &slog.HandlerOptions{Level: level}
	handlers := []slog.Handler{
		slog.NewJSONHandler(recorder, opts),
	}
	if sink != nil {
		var h slog.Handler
		if format == LogText {
			h = slog.NewTextHandler(sink, opts)
		} else {
			h = slog.NewJSONHandler(sink, opts)
		}
		handlers = append(handlers, h)
	}
	logCfg.Store(&logConfig{handlers: handlers, level: level, sink: sink, format: format})
}

// SetLogOutput directs the structured log stream to w in the given
// format, in addition to the always-on flight recorder. Passing nil
// removes the sink. Loggers already handed out observe the change on
// their next record. SetLogOutput does not flip the kill switch.
func SetLogOutput(w io.Writer, format LogFormat) {
	cfg := logCfg.Load()
	resetLogConfig(w, format, cfg.level)
}

// SetLogLevel sets the minimum level for both the sink and the flight
// recorder (default Info). The configured sink is preserved.
func SetLogLevel(level slog.Level) {
	cfg := logCfg.Load()
	resetLogConfig(cfg.sink, cfg.format, level)
}

// Logger returns a structured logger tagged with the given subsystem
// (e.g. "query", "rnet", "caliper"). Loggers are cheap and cacheable in
// package-level variables; they observe kill-switch flips and sink
// changes at call time.
func Logger(subsystem string) *slog.Logger {
	return slog.New(&obsHandler{attrs: []slog.Attr{slog.String("subsystem", subsystem)}})
}

// obsHandler defers handler resolution to record time, so package-level
// loggers stay valid across SetLogOutput reconfigurations, and prepends
// the kill-switch check.
type obsHandler struct {
	attrs  []slog.Attr
	groups []string
}

func (h *obsHandler) Enabled(_ context.Context, level slog.Level) bool {
	return logEnabled.Load() && level >= logCfg.Load().level
}

func (h *obsHandler) Handle(ctx context.Context, rec slog.Record) error {
	cfg := logCfg.Load()
	var first error
	for _, base := range cfg.handlers {
		hh := base
		if len(h.attrs) > 0 {
			hh = hh.WithAttrs(h.attrs)
		}
		for _, g := range h.groups {
			hh = hh.WithGroup(g)
		}
		if err := hh.Handle(ctx, rec.Clone()); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (h *obsHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	if len(h.groups) > 0 {
		// attrs inside groups are qualified by the innermost group; keep
		// ordering by appending group-qualified attrs
		qualified := make([]slog.Attr, 0, len(attrs))
		for _, a := range attrs {
			name := a.Key
			for i := len(h.groups) - 1; i >= 0; i-- {
				name = h.groups[i] + "." + name
			}
			qualified = append(qualified, slog.Attr{Key: name, Value: a.Value})
		}
		attrs = qualified
	}
	na := make([]slog.Attr, 0, len(h.attrs)+len(attrs))
	na = append(na, h.attrs...)
	na = append(na, attrs...)
	return &obsHandler{attrs: na, groups: h.groups}
}

func (h *obsHandler) WithGroup(name string) slog.Handler {
	ng := make([]string, 0, len(h.groups)+1)
	ng = append(ng, h.groups...)
	ng = append(ng, name)
	return &obsHandler{attrs: h.attrs, groups: ng}
}

// flightRecorder retains the last N rendered log lines in a ring. It is
// an io.Writer fed by a JSON handler; writes are line-buffered so a
// record split across Write calls still lands as one entry.
type flightRecorder struct {
	mu      sync.Mutex
	lines   [][]byte
	next    int
	total   uint64
	partial []byte
}

func newFlightRecorder(capacity int) *flightRecorder {
	return &flightRecorder{lines: make([][]byte, capacity)}
}

func (f *flightRecorder) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	written := len(p)
	for {
		nl := -1
		for i, c := range p {
			if c == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			f.partial = append(f.partial, p...)
			break
		}
		line := make([]byte, 0, len(f.partial)+nl)
		line = append(line, f.partial...)
		line = append(line, p[:nl]...)
		f.partial = f.partial[:0]
		f.push(line)
		p = p[nl+1:]
	}
	return written, nil
}

// push stores one complete line (caller holds the lock).
func (f *flightRecorder) push(line []byte) {
	if len(f.lines) == 0 {
		return
	}
	f.lines[f.next] = line
	f.next = (f.next + 1) % len(f.lines)
	f.total++
}

// writeTo dumps the retained lines oldest-first as NDJSON.
func (f *flightRecorder) writeTo(w io.Writer) error {
	f.mu.Lock()
	n := len(f.lines)
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		idx := (f.next + i) % n
		if f.lines[idx] != nil {
			out = append(out, f.lines[idx])
		}
	}
	f.mu.Unlock()
	for _, line := range out {
		if _, err := w.Write(line); err != nil {
			return err
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			return err
		}
	}
	return nil
}

// lengths reports (retained, total) record counts.
func (f *flightRecorder) lengths() (int, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	retained := 0
	for _, l := range f.lines {
		if l != nil {
			retained++
		}
	}
	return retained, f.total
}

// reset drops all retained lines (capacity changes reallocate the ring).
func (f *flightRecorder) reset(capacity int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if capacity <= 0 {
		capacity = defaultFlightRecorderCap
	}
	f.lines = make([][]byte, capacity)
	f.next = 0
	f.total = 0
	f.partial = f.partial[:0]
}

// WriteFlightRecorder dumps the flight recorder's retained records —
// oldest first, one JSON object per line (NDJSON) — to w. The dump works
// regardless of the kill switch; it reads whatever was recorded while
// logging was on. This is the /debug/log endpoint's body, and tools dump
// it on query failure so the run's last events survive the crash report.
func WriteFlightRecorder(w io.Writer) error { return recorder.writeTo(w) }

// FlightRecorderLen reports how many records the flight recorder
// currently retains and how many it has seen in total (the difference
// has been overwritten).
func FlightRecorderLen() (retained int, total uint64) { return recorder.lengths() }

// SetFlightRecorderCapacity resizes the flight recorder ring (default
// 256 records) and clears it. Capacity <= 0 restores the default.
func SetFlightRecorderCapacity(n int) {
	recorder.reset(n)
}
