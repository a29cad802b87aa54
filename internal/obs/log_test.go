package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"caligo/internal/testutil"
)

// withLogging scopes the logging kill switch and resets the flight
// recorder so tests don't observe each other's records.
func withLogging(t *testing.T, on bool) {
	t.Helper()
	prev := SetLogEnabled(on)
	recorder.reset(0) // reset to default, clears contents
	SetLogOutput(nil, LogJSON)
	t.Cleanup(func() {
		SetLogEnabled(prev)
		SetLogOutput(nil, LogJSON)
		recorder.reset(0)
	})
}

func TestLoggingKillSwitch(t *testing.T) {
	withLogging(t, false)
	log := queryLogger
	log.Info("dropped", "k", "v")
	if retained, total := recorder.lengths(); retained != 0 || total != 0 {
		t.Errorf("disabled logging recorded %d/%d records", retained, total)
	}
	EnableLogging()
	log.Info("kept", "k", "v")
	if retained, _ := recorder.lengths(); retained != 1 {
		t.Errorf("enabled logging retained %d records, want 1", retained)
	}
}

// TestLoggingDisabledAllocs: a dropped record costs no allocations — the
// kill switch is checked in Enabled before slog builds the record.
func TestLoggingDisabledAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	withLogging(t, false)
	log := queryLogger
	allocs := testing.AllocsPerRun(100, func() {
		log.Info("dropped", "key", 42)
	})
	if allocs != 0 {
		t.Errorf("disabled log call allocates %.1f times, want 0", allocs)
	}
}

func TestFlightRecorderRingAndDump(t *testing.T) {
	withLogging(t, true)
	recorder.reset(4)
	log := queryLogger
	for i := 0; i < 10; i++ {
		log.Info("event", "seq", i)
	}
	retained, total := recorder.lengths()
	if retained != 4 || total != 10 {
		t.Fatalf("retained/total = %d/%d, want 4/10", retained, total)
	}
	var buf bytes.Buffer
	if err := WriteFlightRecorder(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("dump has %d lines, want 4:\n%s", len(lines), buf.String())
	}
	// oldest-first: the retained window is seqs 6..9
	for i, line := range lines {
		var rec struct {
			Msg       string  `json:"msg"`
			Seq       float64 `json:"seq"`
			Component string  `json:"component"`
			Level     string  `json:"level"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if rec.Seq != float64(6+i) {
			t.Errorf("line %d seq = %v, want %d", i, rec.Seq, 6+i)
		}
		if rec.Component != "query" {
			t.Errorf("line %d component = %q", i, rec.Component)
		}
	}
}

func TestLogSinkFormats(t *testing.T) {
	withLogging(t, true)
	var sink bytes.Buffer
	SetLogOutput(&sink, LogJSON)
	queryLogger.Warn("json sink", "n", 1)
	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(sink.Bytes()), &rec); err != nil {
		t.Fatalf("JSON sink line invalid: %v\n%s", err, sink.String())
	}
	if rec["component"] != "query" || rec["msg"] != "json sink" {
		t.Errorf("JSON sink record %v", rec)
	}

	sink.Reset()
	SetLogOutput(&sink, LogText)
	queryLogger.Error("text sink", "n", 2)
	out := sink.String()
	if !strings.Contains(out, "msg=\"text sink\"") || !strings.Contains(out, "component=query") {
		t.Errorf("text sink rendering: %s", out)
	}
	// flight recorder captured both, as JSON, regardless of sink format
	var fr bytes.Buffer
	if err := WriteFlightRecorder(&fr); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(fr.String(), "\n"); got != 2 {
		t.Errorf("flight recorder has %d records, want 2:\n%s", got, fr.String())
	}
}

// SetLogLevel sets the minimum level for both the sink and the flight
// recorder (default Info), keeping the configured sink.
func SetLogLevel(level slog.Level) {
	cfg := logCfg.Load()
	resetLogConfig(cfg.sink, cfg.format, level)
}

func TestLogLevelPreservesSink(t *testing.T) {
	withLogging(t, true)
	var sink bytes.Buffer
	SetLogOutput(&sink, LogJSON)
	SetLogLevel(slog.LevelWarn)
	defer SetLogLevel(slog.LevelInfo)
	log := queryLogger
	log.Info("filtered")
	log.Warn("passed")
	if strings.Contains(sink.String(), "filtered") {
		t.Error("info record passed a Warn level")
	}
	if !strings.Contains(sink.String(), "passed") {
		t.Error("warn record filtered; sink lost on SetLogLevel?")
	}
}

func TestLoggerGroupsAndAttrs(t *testing.T) {
	withLogging(t, true)
	var sink bytes.Buffer
	SetLogOutput(&sink, LogJSON)
	log := queryLogger.With("qid", 7).WithGroup("phase").With("name", "merge")
	log.Info("timing", "ns", 123)
	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(sink.Bytes()), &rec); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sink.String())
	}
	if rec["qid"] != float64(7) {
		t.Errorf("qid = %v", rec["qid"])
	}
	// the grouped attrs land under the group, however slog nests them
	if _, ok := rec["phase"]; !ok {
		t.Errorf("no phase group in %v", rec)
	}
}

// TestLogConcurrentWriteWhileDump hammers logging and flight-recorder
// dumps concurrently (run under -race in CI).
func TestLogConcurrentWriteWhileDump(t *testing.T) {
	withLogging(t, true)
	log := queryLogger
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				log.Info("event", "worker", w, "i", i)
			}
		}(w)
	}
	for d := 0; d < 2; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := WriteFlightRecorder(&buf); err != nil {
					t.Error(err)
					return
				}
				for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
					if line == "" {
						continue
					}
					if !json.Valid([]byte(line)) {
						t.Errorf("torn flight-recorder line: %q", line)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
