package qcache

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// DefaultMaxBytes bounds the store size when neither the caller nor the
// CALIGO_CACHE_MAX environment variable picks a limit.
const DefaultMaxBytes = 256 << 20

// Store is a directory of cache entry files. One entry file per
// (plan fingerprint, data file) pair, named by the two FNV-1a hashes, so
// lookup is a single stat+read and concurrent processes sharing the
// directory never contend beyond the filesystem. Writes go through a
// temp file + rename, so readers only ever observe complete entries.
type Store struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	size  int64 // running byte total of entry files; -1 until first scan
	count int64
}

// Open opens (creating if needed) a cache store rooted at dir. The size
// bound comes from CALIGO_CACHE_MAX (bytes) or DefaultMaxBytes.
func Open(dir string) (*Store, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, err
	}
	max := int64(DefaultMaxBytes)
	if v := os.Getenv("CALIGO_CACHE_MAX"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			max = n
		}
	}
	return &Store{dir: abs, maxBytes: max, size: -1}, nil
}

var (
	sharedMu sync.Mutex
	shared   = map[string]*Store{}
)

// Shared returns a process-wide store for dir, opening it on first use.
// Sharded workers and emulated-MPI ranks all funnel through one Store so
// the size accounting stays coherent within the process.
func Shared(dir string) (*Store, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if s, ok := shared[abs]; ok {
		return s, nil
	}
	s, err := Open(abs)
	if err != nil {
		return nil, err
	}
	shared[abs] = s
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// MaxBytes returns the store's size bound.
func (s *Store) MaxBytes() int64 { return s.maxBytes }

// SetMaxBytes overrides the size bound (cali-cache gc -max).
func (s *Store) SetMaxBytes(n int64) {
	s.mu.Lock()
	s.maxBytes = n
	s.mu.Unlock()
}

// entryPath names the entry file for a (plan, data file) pair.
func (s *Store) entryPath(plan, file string) string {
	return filepath.Join(s.dir, fmt.Sprintf("%016x-%016x%s", hash64(plan), hash64(file), EntryExt))
}

// Lookup returns the cached entry for (plan, file), or nil on a miss.
// A corrupt or mismatched entry is removed and counted as a fallback;
// a hit refreshes the entry's mtime so eviction stays LRU.
func (s *Store) Lookup(plan, file string) *Entry {
	e, _ := s.Get(plan, file)
	return e
}

// Get is Lookup that also says why it rejected an entry it found: the
// error wraps ErrCorrupt or ErrVersion (nil for a hit or a plain miss).
func (s *Store) Get(plan, file string) (*Entry, error) {
	abs, err := filepath.Abs(file)
	if err != nil {
		return nil, nil
	}
	p := s.entryPath(plan, abs)
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, nil // not cached (or unreadable — treat the same)
	}
	e, err := DecodeEntry(data)
	if err == nil && (e.Plan != plan || e.File != abs) {
		err = fmt.Errorf("%w: entry for another plan or file", ErrCorrupt)
	}
	if err != nil {
		// Corrupt, version-skewed, or a filename-hash collision: drop it
		// so the slot can be rebuilt, and fall back to a full scan.
		TelFallback.Inc()
		os.Remove(p)
		s.forget(int64(len(data)))
		return nil, err
	}
	now := time.Now()
	os.Chtimes(p, now, now)
	return e, nil
}

// Put stores an entry, replacing any prior state for its key, and
// evicts least-recently-used entries if the store exceeds its bound.
func (s *Store) Put(e *Entry) error {
	abs, err := filepath.Abs(e.File)
	if err != nil {
		return err
	}
	if abs != e.File {
		clone := *e
		clone.File = abs
		e = &clone
	}
	data := e.Encode()
	p := s.entryPath(e.Plan, e.File)
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	var prev int64
	if st, err := os.Stat(p); err == nil {
		prev = st.Size()
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	TelStores.Inc()
	s.account(int64(len(data)), prev)
	return nil
}

// forget subtracts a removed entry from the running totals.
func (s *Store) forget(bytes int64) {
	s.mu.Lock()
	if s.size >= 0 {
		s.size -= bytes
		s.count--
		if s.size < 0 {
			s.size = 0
		}
		if s.count < 0 {
			s.count = 0
		}
		s.publishLocked()
	}
	s.mu.Unlock()
}

// account records a stored entry (replacing prev bytes if overwritten)
// and evicts if over budget. The first call scans the directory so the
// totals include entries left by earlier processes.
func (s *Store) account(bytes, prev int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.size < 0 {
		s.rescanLocked()
		// rescan already saw the new entry
	} else {
		s.size += bytes - prev
		if prev == 0 {
			s.count++
		}
	}
	if s.size > s.maxBytes {
		s.evictLocked()
	}
	s.publishLocked()
}

func (s *Store) publishLocked() {
	gStoreBytes.Set(s.size)
	gStoreEntries.Set(s.count)
}

// rescanLocked recomputes size/count from the directory.
func (s *Store) rescanLocked() {
	s.size, s.count = 0, 0
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, de := range ents {
		if filepath.Ext(de.Name()) != EntryExt {
			continue
		}
		if info, err := de.Info(); err == nil {
			s.size += info.Size()
			s.count++
		}
	}
}

// evictLocked removes oldest-mtime entries until the store fits.
func (s *Store) evictLocked() {
	type cand struct {
		path  string
		size  int64
		mtime time.Time
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	var cands []cand
	for _, de := range ents {
		if filepath.Ext(de.Name()) != EntryExt {
			continue
		}
		if info, err := de.Info(); err == nil {
			cands = append(cands, cand{filepath.Join(s.dir, de.Name()), info.Size(), info.ModTime()})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mtime.Before(cands[j].mtime) })
	for _, c := range cands {
		if s.size <= s.maxBytes {
			break
		}
		if os.Remove(c.path) == nil {
			s.size -= c.size
			s.count--
			TelEvictions.Inc()
		}
	}
	if s.size < 0 {
		s.size = 0
	}
	if s.count < 0 {
		s.count = 0
	}
}

// GC evicts down to the size bound (without waiting for a Put) and
// returns how many entries were removed and how many bytes were freed.
func (s *Store) GC() (removed int, freed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rescanLocked()
	before, beforeN := s.size, s.count
	if s.size > s.maxBytes {
		s.evictLocked()
	}
	s.publishLocked()
	return int(beforeN - s.count), before - s.size
}

// EntryInfo describes one stored entry for inspection tooling.
type EntryInfo struct {
	Path  string // entry file path
	Size  int64  // entry file size in bytes
	Mtime time.Time
	Entry *Entry // nil when Err != nil
	Err   error  // decode failure, if any
}

// Entries decodes every entry file in the store, newest first. Decode
// failures are reported per entry rather than aborting the walk.
func (s *Store) Entries() ([]EntryInfo, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []EntryInfo
	for _, de := range ents {
		if filepath.Ext(de.Name()) != EntryExt {
			continue
		}
		p := filepath.Join(s.dir, de.Name())
		info := EntryInfo{Path: p}
		if st, err := de.Info(); err == nil {
			info.Size = st.Size()
			info.Mtime = st.ModTime()
		}
		data, err := os.ReadFile(p)
		if err != nil {
			info.Err = err
		} else if e, err := DecodeEntry(data); err != nil {
			info.Err = err
		} else {
			info.Entry = e
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Mtime.After(out[j].Mtime) })
	return out, nil
}

// Verify checks every entry's checksum and removes the broken ones.
// It returns total and removed entry counts.
func (s *Store) Verify() (total, removed int, err error) {
	infos, err := s.Entries()
	if err != nil {
		return 0, 0, err
	}
	for _, info := range infos {
		total++
		if info.Err != nil {
			if os.Remove(info.Path) == nil {
				removed++
			}
		}
	}
	s.mu.Lock()
	s.rescanLocked()
	s.publishLocked()
	s.mu.Unlock()
	return total, removed, nil
}
