package caliper

import (
	"fmt"
	"io"
	"sync"

	"caligo/internal/obs/history"
)

// HistoryOptions configures continuous telemetry-history recording:
// output directory, window cadence, ring retention, and the host.rank
// stamp. See the field docs on history.Options.
type HistoryOptions = history.Options

// histRec is the process-wide history recorder managed by
// StartHistory/StopHistory and shared with the /debug/history endpoint.
var (
	histMu  sync.Mutex
	histRec *history.Recorder
)

// StartHistory begins continuous telemetry-history recording: every
// Interval the recorder snapshots the telemetry registry — counters as
// window deltas, gauges as samples, histograms as mergeable log-linear
// bin sets — and writes the window as one .cali file under Dir, keeping
// at most MaxFiles files. The files are ordinary caligo datasets; query
// the timeline with cali-query or calql.Run:
//
//	SELECT time.window.start, metric.name, sum(metric.delta)
//	  GROUP BY time.window.start, metric.name
//
// The retained windows are also served as JSON at /debug/history, and a
// reduction network configured with rnet.WithHistory merges them
// cluster-wide for /debug/cluster. Only one history recorder runs per
// process; starting a second one is an error. Recorder overhead is
// exported through the caligo.history.* metrics (docs/OBSERVABILITY.md).
func StartHistory(opts HistoryOptions) error {
	histMu.Lock()
	defer histMu.Unlock()
	if histRec != nil {
		return fmt.Errorf("caliper: history recording already running")
	}
	r, err := history.Start(opts)
	if err != nil {
		return err
	}
	histRec = r
	return nil
}

// StopHistory halts history recording, capturing one final tail window
// (so short runs still produce a window). Retained .cali files stay on
// disk. It is a no-op when history recording is not running.
func StopHistory() {
	histMu.Lock()
	r := histRec
	histRec = nil
	histMu.Unlock()
	if r != nil {
		r.Stop()
	}
}

// HistoryActive reports whether history recording is running.
func HistoryActive() bool {
	histMu.Lock()
	defer histMu.Unlock()
	return histRec != nil
}

// historyRecorder returns the active recorder, or nil.
func historyRecorder() *history.Recorder {
	histMu.Lock()
	defer histMu.Unlock()
	return histRec
}

// HistoryRecorder returns the active history recorder (nil when not
// running), for wiring into a reduction network via rnet.WithHistory.
func HistoryRecorder() *history.Recorder { return historyRecorder() }

// WriteHistory writes the retained telemetry windows as the
// /debug/history JSON document — so host applications can expose the
// timeline on their own endpoint without mounting the debug handler. An
// empty document is written when history recording is not running.
func WriteHistory(w io.Writer) error {
	var windows []history.Window
	if r := historyRecorder(); r != nil {
		windows = r.Windows()
	}
	return history.WriteWindowsJSON(w, windows)
}

// HistoryFiles returns the .cali window files currently retained by the
// history recorder, oldest first (nil when not running).
func HistoryFiles() []string {
	r := historyRecorder()
	if r == nil {
		return nil
	}
	return r.Files()
}
