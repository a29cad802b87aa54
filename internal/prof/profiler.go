package prof

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"caligo/internal/obs"
	"caligo/internal/telemetry"
)

// Self-instrumentation for the capture scheduler.
var (
	telWindows   = telemetry.NewCounter("caligo.prof.windows")
	telCaptures  = telemetry.NewCounter("caligo.prof.captures")
	telErrors    = telemetry.NewCounter("caligo.prof.errors")
	telBytes     = telemetry.NewCounter("caligo.prof.bytes.written")
	telFiles     = telemetry.NewGauge("caligo.prof.files")
	telCaptureNS = telemetry.NewHistogram("caligo.prof.capture.ns")
)

// cpuMu serializes CPU profiling: the Go runtime allows only one CPU
// profile at a time per process, so a scheduler window and an on-demand
// trigger must not overlap.
var cpuMu sync.Mutex

// Kinds of point-in-time profiles the capture layer understands, matching
// runtime/pprof.Lookup names. "cpu" is special-cased (windowed).
var pointKinds = map[string]bool{
	"heap": true, "allocs": true, "goroutine": true,
	"mutex": true, "block": true, "threadcreate": true,
}

// KnownKind reports whether kind names a capturable profile.
func KnownKind(kind string) bool { return kind == "cpu" || pointKinds[kind] }

// CaptureCali captures a profile of the running process and converts it
// to .cali bytes. kind "cpu" records a window of the given duration;
// point-in-time kinds (heap, allocs, goroutine, mutex, block,
// threadcreate) ignore window. The capture overhead (everything except
// the window's wall time itself) is recorded in caligo.prof.capture.ns.
func CaptureCali(kind string, window time.Duration) ([]byte, ConvertStats, error) {
	raw, err := CapturePprof(kind, window)
	if err != nil {
		return nil, ConvertStats{}, err
	}
	return ConvertPprof(raw)
}

// CapturePprof captures a raw pprof profile (gzipped protobuf) of the
// running process.
func CapturePprof(kind string, window time.Duration) ([]byte, error) {
	start := time.Now()
	var buf bytes.Buffer
	switch {
	case kind == "cpu":
		if window <= 0 {
			window = time.Second
		}
		cpuMu.Lock()
		err := pprof.StartCPUProfile(&buf)
		if err != nil {
			cpuMu.Unlock()
			telErrors.Inc()
			return nil, fmt.Errorf("prof: start CPU profile: %w", err)
		}
		time.Sleep(window)
		pprof.StopCPUProfile()
		cpuMu.Unlock()
		telWindows.Inc()
		// the window's sleep is not overhead; count setup+stop+encode only
		telCaptureNS.Observe(time.Since(start).Nanoseconds() - window.Nanoseconds())
	case pointKinds[kind]:
		p := pprof.Lookup(kind)
		if p == nil {
			telErrors.Inc()
			return nil, fmt.Errorf("prof: unknown profile kind %q", kind)
		}
		if err := p.WriteTo(&buf, 0); err != nil {
			telErrors.Inc()
			return nil, fmt.Errorf("prof: capture %s: %w", kind, err)
		}
		telCaptureNS.Observe(time.Since(start).Nanoseconds())
	default:
		return nil, fmt.Errorf("prof: unknown profile kind %q (want cpu, heap, allocs, goroutine, mutex, block, or threadcreate)", kind)
	}
	telCaptures.Inc()
	return buf.Bytes(), nil
}

// ConvertPprof parses raw pprof bytes and converts them to .cali bytes.
func ConvertPprof(raw []byte) ([]byte, ConvertStats, error) {
	p, err := Parse(raw)
	if err != nil {
		telErrors.Inc()
		return nil, ConvertStats{}, err
	}
	var out bytes.Buffer
	stats, err := Convert(p, &out)
	if err != nil {
		telErrors.Inc()
		return nil, stats, err
	}
	return out.Bytes(), stats, nil
}

// Options configures a continuous Profiler.
type Options struct {
	// Dir receives the .cali files. Required.
	Dir string
	// Interval is the cadence between capture rounds (default 1 minute).
	Interval time.Duration
	// CPUWindow is the length of each round's CPU profile window
	// (default 5s; negative disables CPU profiling).
	CPUWindow time.Duration
	// Kinds lists additional point-in-time profiles captured each round
	// (default: heap and goroutine).
	Kinds []string
	// MaxFiles bounds the on-disk ring: when more than MaxFiles converted
	// profiles exist, the oldest are removed (default 16, minimum 2).
	MaxFiles int
	// Prefix names the files: <prefix>-<seq>-<kind>.cali (default
	// "selfprof").
	Prefix string
}

func (o *Options) fill() error {
	if o.Dir == "" {
		return fmt.Errorf("prof: Options.Dir is required")
	}
	if o.Interval <= 0 {
		o.Interval = time.Minute
	}
	if o.CPUWindow == 0 {
		o.CPUWindow = 5 * time.Second
	}
	if o.Kinds == nil {
		o.Kinds = []string{"heap", "goroutine"}
	}
	for _, k := range o.Kinds {
		if !pointKinds[k] {
			return fmt.Errorf("prof: unknown point-in-time profile kind %q", k)
		}
	}
	o.MaxFiles = obs.RingSize(o.MaxFiles, 16)
	if o.Prefix == "" {
		o.Prefix = "selfprof"
	}
	return nil
}

// Profiler is a continuous self-profiling scheduler: every Interval it
// captures a CPU window plus the configured point-in-time profiles,
// converts each to .cali, and maintains a bounded ring of output files.
type Profiler struct {
	*obs.FileRing // the retained files; Files lists them
	opts          Options
	log           *slog.Logger

	mu   sync.Mutex
	seq  int
	done chan struct{}
	wg   sync.WaitGroup
}

// Start begins continuous capture with the given options. The first
// round runs immediately in the background.
func Start(opts Options) (*Profiler, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	log := obs.Logger("prof")
	p := &Profiler{
		FileRing: obs.NewFileRing(opts.Dir, opts.Prefix, opts.MaxFiles, telFiles, log),
		opts:     opts,
		log:      log,
		done:     make(chan struct{}),
	}
	p.wg.Add(1)
	go p.loop()
	return p, nil
}

// Stop halts the scheduler and waits for an in-flight round to finish.
// Retained files stay on disk.
func (p *Profiler) Stop() {
	p.mu.Lock()
	select {
	case <-p.done:
		p.mu.Unlock()
		return
	default:
		close(p.done)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Profiler) loop() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.opts.Interval)
	defer ticker.Stop()
	p.round()
	for {
		select {
		case <-p.done:
			return
		case <-ticker.C:
			p.round()
		}
	}
}

// round captures one set of profiles.
func (p *Profiler) round() {
	if p.opts.CPUWindow > 0 {
		// The CPU window sleeps inside CaptureCali; bail out early when
		// Stop raced with the tick.
		select {
		case <-p.done:
			return
		default:
		}
		if _, err := p.capture("cpu", p.opts.CPUWindow); err != nil {
			p.log.Warn("cpu capture failed", "err", err)
		}
	}
	for _, kind := range p.opts.Kinds {
		if _, err := p.capture(kind, 0); err != nil {
			p.log.Warn("capture failed", "kind", kind, "err", err)
		}
	}
}

// capture records one profile, converts it, writes the ring file, and
// enforces retention. It returns the written file path.
func (p *Profiler) capture(kind string, window time.Duration) (string, error) {
	cali, _, err := CaptureCali(kind, window)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	seq := p.seq
	p.seq++
	p.mu.Unlock()
	name := fmt.Sprintf("%s-%06d-%s.cali", p.opts.Prefix, seq, kind)
	path := filepath.Join(p.opts.Dir, name)
	if err := os.WriteFile(path, cali, 0o644); err != nil {
		telErrors.Inc()
		return "", fmt.Errorf("prof: write %s: %w", path, err)
	}
	telBytes.Add(uint64(len(cali)))
	p.Add(path)
	return path, nil
}

// TriggerWindow synchronously captures one CPU window of the given
// duration (default: the configured CPUWindow) into the ring and returns
// the written file path. Safe to call while the scheduler runs: CPU
// profiling is serialized process-wide.
func (p *Profiler) TriggerWindow(window time.Duration) (string, error) {
	if window <= 0 {
		window = p.opts.CPUWindow
		if window <= 0 {
			window = time.Second
		}
	}
	return p.capture("cpu", window)
}

// TriggerPoint synchronously captures one point-in-time profile into the
// ring and returns the written file path.
func (p *Profiler) TriggerPoint(kind string) (string, error) {
	if !pointKinds[kind] {
		return "", fmt.Errorf("prof: unknown point-in-time profile kind %q", kind)
	}
	return p.capture(kind, 0)
}

// Latest returns the path of the most recent retained file, optionally
// filtered by kind ("" matches any).
func (p *Profiler) Latest(kind string) (string, bool) {
	files := p.Files()
	for i := len(files) - 1; i >= 0; i-- {
		if kind == "" || kindOfFile(files[i]) == kind {
			return files[i], true
		}
	}
	return "", false
}

// Options returns the profiler's effective (defaulted) options.
func (p *Profiler) Options() Options { return p.opts }

// kindOfFile recovers the profile kind from a ring file name
// (<prefix>-<seq>-<kind>.cali).
func kindOfFile(path string) string {
	base := filepath.Base(path)
	base = base[:len(base)-len(filepath.Ext(base))]
	if i := lastDash(base); i >= 0 {
		return base[i+1:]
	}
	return ""
}

func lastDash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '-' {
			return i
		}
	}
	return -1
}
