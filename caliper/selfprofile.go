package caliper

import (
	"fmt"
	"sync"
	"time"

	"caligo/internal/prof"
)

// SelfProfilingOptions configures continuous self-profiling: output
// directory, capture cadence, CPU window length, point-in-time profile
// kinds, and ring retention. See the field docs on prof.Options.
type SelfProfilingOptions = prof.Options

// selfProf is the process-wide continuous profiler managed by
// StartSelfProfiling/StopSelfProfiling and shared with the
// /debug/selfprofile endpoint.
var (
	selfProfMu sync.Mutex
	selfProf   *prof.Profiler
)

// StartSelfProfiling begins continuous self-profiling of this process:
// every Interval the profiler captures a CPU window plus the configured
// point-in-time profiles (heap, goroutine, ... ), converts each to a
// .cali file under Dir, and keeps at most MaxFiles files. The files are
// ordinary caligo datasets — query them with cali-query, cali-prof, or
// calql.Run:
//
//	SELECT prof.function, inclusive_sum(cpu.samples)
//	GROUP BY prof.function FORMAT tree
//
// Only one self-profiler runs per process; starting a second one is an
// error. Capture overhead is exported through the caligo.prof.* telemetry
// metrics (see docs/OBSERVABILITY.md).
func StartSelfProfiling(opts SelfProfilingOptions) error {
	selfProfMu.Lock()
	defer selfProfMu.Unlock()
	if selfProf != nil {
		return fmt.Errorf("caliper: self-profiling already running")
	}
	p, err := prof.Start(opts)
	if err != nil {
		return err
	}
	selfProf = p
	return nil
}

// StopSelfProfiling halts continuous self-profiling, waiting for an
// in-flight capture to finish. Retained .cali files stay on disk. It is a
// no-op when self-profiling is not running.
func StopSelfProfiling() {
	selfProfMu.Lock()
	p := selfProf
	selfProf = nil
	selfProfMu.Unlock()
	if p != nil {
		p.Stop()
	}
}

// SelfProfilingActive reports whether continuous self-profiling is
// running.
func SelfProfilingActive() bool {
	selfProfMu.Lock()
	defer selfProfMu.Unlock()
	return selfProf != nil
}

// selfProfiler returns the active profiler, or nil.
func selfProfiler() *prof.Profiler {
	selfProfMu.Lock()
	defer selfProfMu.Unlock()
	return selfProf
}

// TriggerSelfProfile synchronously captures one profile and returns the
// path of the written .cali file. kind is "cpu" (window applies, default
// 1s) or a point-in-time profile kind (heap, allocs, goroutine, mutex,
// block, threadcreate). Requires self-profiling to be running — the
// capture lands in its retention ring.
func TriggerSelfProfile(kind string, window time.Duration) (string, error) {
	p := selfProfiler()
	if p == nil {
		return "", fmt.Errorf("caliper: self-profiling not running (call StartSelfProfiling)")
	}
	if kind == "cpu" {
		return p.TriggerWindow(window)
	}
	return p.TriggerPoint(kind)
}

// SelfProfileFiles returns the .cali files currently retained by the
// self-profiler, oldest first (nil when self-profiling is not running).
func SelfProfileFiles() []string {
	p := selfProfiler()
	if p == nil {
		return nil
	}
	return p.Files()
}

// LatestSelfProfile returns the most recent retained .cali file,
// optionally filtered by profile kind ("" matches any).
func LatestSelfProfile(kind string) (string, bool) {
	p := selfProfiler()
	if p == nil {
		return "", false
	}
	return p.Latest(kind)
}

// CaptureSelfProfile captures one profile of the running process and
// returns it as .cali bytes without touching disk or requiring the
// continuous profiler. kind and window as in TriggerSelfProfile.
func CaptureSelfProfile(kind string, window time.Duration) ([]byte, error) {
	cali, _, err := prof.CaptureCali(kind, window)
	return cali, err
}
