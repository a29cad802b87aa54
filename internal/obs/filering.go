package obs

import (
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"caligo/internal/telemetry"
)

// FileRing is a bounded on-disk retention ring: the newest max files
// <dir>/<prefix>-*.cali, oldest first. The self-profiler (internal/prof)
// and the telemetry-history recorder (internal/obs/history) embed one to
// hold the .cali files they write.
type FileRing struct {
	mu    sync.Mutex
	max   int
	files []string
	gauge *telemetry.Gauge // tracks len(files)
	log   *slog.Logger
}

// RingSize resolves a MaxFiles option: def when unset, and never below 2.
func RingSize(n, def int) int {
	if n <= 0 {
		n = def
	}
	return max(n, 2)
}

// NewFileRing returns the ring of at most size files named
// <dir>/<prefix>-*.cali, holding what a previous run left there.
func NewFileRing(dir, prefix string, size int, gauge *telemetry.Gauge, log *slog.Logger) *FileRing {
	r := &FileRing{max: size, gauge: gauge, log: log}
	r.adoptExisting(dir, prefix)
	return r
}

// adoptExisting picks up leftover ring files from a previous run so
// retention keeps working across restarts.
func (r *FileRing) adoptExisting(dir, prefix string) {
	matches, err := filepath.Glob(filepath.Join(dir, prefix+"-*.cali"))
	if err != nil || len(matches) == 0 {
		return
	}
	sort.Strings(matches)
	r.files = matches
	r.gauge.Set(int64(len(r.files)))
}

// Add takes a newly written file into the ring and removes the oldest
// files beyond the bound from disk.
func (r *FileRing) Add(path string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.files = append(r.files, path)
	for ; len(r.files) > r.max; r.files = r.files[1:] {
		if err := os.Remove(r.files[0]); err != nil && !os.IsNotExist(err) {
			r.log.Warn("retention remove failed", "file", r.files[0], "err", err)
		}
	}
	r.gauge.Set(int64(len(r.files)))
}

// Files returns the retained ring files, oldest first.
func (r *FileRing) Files() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.files...)
}
