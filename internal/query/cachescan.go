package query

// Aggregate-cache scan routing: the bridge between the per-file state
// cache (internal/qcache) and the scan planner. PlanUnits classifies
// each input file — hit (cached state covers the whole file), incremental
// (the file grew past the cached watermark), or miss — and ScanUnit
// executes the classified unit:
//
//   - hit: the cached core.DB state blob is decoded into a private
//     database and merged into the engine; the file is never opened for
//     decoding (only the 128KiB identity hash was read at plan time).
//   - incremental: the reader replays the prefix's metadata spans
//     (attr/node/globals definitions later records depend on), seeks to
//     the watermark, decodes only the appended tail into a private
//     engine seeded with the cached state, merges, and re-stores under
//     the new watermark.
//   - miss: the unit scans normally — but into a private engine whose
//     per-file state is stored before merging into the caller's engine.
//
// Both the hit and miss paths merge a private per-file database into the
// engine, so grouping is identical warm and cold — the same argument
// that makes sharded execution byte-identical to serial. Every
// validation failure (state blob undecodable, replay desync, file
// changed mid-scan) degrades to a full scan of the file, bumps
// caligo.qcache.fallback and counts its reason on the query profile's
// cache phase (fallback_stale, _corrupt, _version, _replay — EXPLAIN
// ANALYZE and /debug/queries show them); the query answer is never wrong,
// only slower.

import (
	"context"
	"errors"
	"fmt"
	"os"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/qcache"
	"caligo/internal/snapshot"
)

// Unit cache routing modes.
const (
	cacheNone = iota // cache disabled for this unit; scan normally, no store
	cacheHitMode
	cacheIncrMode
	cacheMissMode
)

// maxMetaSpans bounds a stored entry's metadata span list; a file more
// fragmented than this records one whole-prefix span instead (the
// incremental scan then text-scans the prefix rather than seeking).
const maxMetaSpans = 64

// noteCacheFallback records one degraded cache path and why: reason is
// the cache phase stat that counts it.
func (p *ScanPlan) noteCacheFallback(reason string) {
	qcache.TelFallback.Inc()
	p.mu.Lock()
	p.stats.CacheFallbacks++
	p.mu.Unlock()
	p.prof.Add("cache", reason, 1)
}

// planCache classifies one input file against the cache: hit (entry
// covers the file exactly), incremental (the file grew and the entry's
// prefix is intact), or miss. cacheNone means the file could not be
// opened; the scan will surface the real error.
func (p *ScanPlan) planCache(file string) (int, *qcache.Entry) {
	e, err := p.cache.Get(p.cachePlan, file)
	switch {
	case errors.Is(err, qcache.ErrVersion): // the store counted the fallback
		p.prof.Add("cache", "fallback_version", 1)
	case err != nil:
		p.prof.Add("cache", "fallback_corrupt", 1)
	}
	if e == nil {
		return cacheMissMode, nil
	}
	f, err := os.Open(file)
	if err != nil {
		return cacheNone, nil
	}
	defer f.Close()
	switch id, err := calformat.CheckIdentity(f, e.Watermark, e.PrefixHash); {
	case err != nil || id == calformat.Changed || e.Watermark <= 0:
		// truncated, rewritten, or changed in place under the covered
		// prefix since stored: stale
		p.noteCacheFallback("fallback_stale")
		return cacheMissMode, nil
	case id == calformat.Same:
		return cacheHitMode, e
	default:
		return cacheIncrMode, e
	}
}

// seeded returns a private engine holding the unit's cached state, the
// starting point of the hit and incremental paths. The blob is validated
// into the private database first, so a bad entry cannot leave eng
// half-merged; nil means the entry is unusable — the fallback is noted,
// and the caller rescans the unit as a miss.
func (p *ScanPlan) seeded(eng *Engine, u Unit, reg *attr.Registry) *Engine {
	priv, err := New(p.q, reg)
	if err == nil && priv.db != nil && eng.db != nil {
		err = priv.db.MergeEncodedState(u.cacheEntry.State)
	} else if err == nil {
		err = fmt.Errorf("query: cache entry on non-aggregating engine")
	}
	if err != nil {
		p.noteCacheFallback("fallback_corrupt")
		return nil
	}
	return priv
}

// noteBytesSkipped accounts the file prefix cached state stood in for.
func (p *ScanPlan) noteBytesSkipped(n int64) {
	p.mu.Lock()
	p.stats.CacheBytesSkipped += n
	p.mu.Unlock()
	qcache.TelBytesSkipped.Add(uint64(n))
	p.prof.Add("cache", "bytes_skipped", n)
}

// scanCacheHit serves a unit entirely from cached state.
func (p *ScanPlan) scanCacheHit(ctx context.Context, eng *Engine, u Unit, reg *attr.Registry, tree *contexttree.Tree) (int, int64, error) {
	priv := p.seeded(eng, u, reg)
	if priv == nil {
		return p.scanCacheMiss(ctx, eng, u, reg, tree)
	}
	if err := eng.db.Merge(priv.db); err != nil {
		return 0, 0, err
	}
	p.noteBytesSkipped(u.cacheEntry.Watermark)
	return int(u.cacheEntry.Records), 0, nil
}

// scanCacheMiss scans the unit in full through a private engine, stores
// the resulting per-file state, and merges it into the caller's engine.
// It is also where an unusable hit or incremental unit lands: nothing
// below reads the unit's cache routing.
func (p *ScanPlan) scanCacheMiss(ctx context.Context, eng *Engine, u Unit, reg *attr.Registry, tree *contexttree.Tree) (int, int64, error) {
	if eng.db == nil {
		n, bytes, _, err := p.scanUnitInto(ctx, eng, eng, u, reg, tree)
		return n, bytes, err
	}
	priv, err := New(p.q, reg)
	if err != nil {
		return 0, 0, err
	}
	n, bytes, endOff, err := p.scanUnitInto(ctx, eng, priv, u, reg, tree)
	if err != nil {
		return n, bytes, err
	}
	p.putEntry(u.File, priv, endOff, uint64(n), metaSpansOf(u.Idx, endOff))
	return n, bytes, eng.db.Merge(priv.db)
}

// scanCacheIncr seeds a private engine with the cached state, decodes
// only the file's appended tail, merges, and re-stores under the new
// watermark. Any replay problem degrades to a stored full scan.
func (p *ScanPlan) scanCacheIncr(ctx context.Context, eng *Engine, u Unit, reg *attr.Registry, tree *contexttree.Tree) (int, int64, error) {
	e := u.cacheEntry
	priv := p.seeded(eng, u, reg)
	if priv == nil {
		return p.scanCacheMiss(ctx, eng, u, reg, tree)
	}
	f, err := os.Open(u.File)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	rd := eng.reader(f, reg, tree)
	if p.proj != nil {
		rd.SetProjection(p.proj)
	}
	// replay the prefix's metadata definitions, seeking over record runs
	replayErr := func() error {
		for _, s := range e.MetaSpans {
			if s.Off > rd.Offset() {
				if err := rd.SkipTo(s.Off); err != nil {
					return err
				}
			}
			if err := rd.ScanMetaUntil(s.Off + s.Len); err != nil {
				return err
			}
		}
		if e.Watermark > rd.Offset() {
			return rd.SkipTo(e.Watermark)
		}
		return nil
	}()
	if replayErr != nil {
		p.noteCacheFallback("fallback_replay")
		return p.scanCacheMiss(ctx, eng, u, reg, tree)
	}
	metaBefore := rd.MetaLines()
	var rec snapshot.FlatRecord
	records, err := drain(ctx, rd, priv, &rec, u.File)
	endOff := rd.Offset()
	tail := endOff - e.Watermark
	if err != nil {
		return records, tail, err
	}
	spans := e.MetaSpans
	if rd.MetaLines() > metaBefore {
		// the tail holds new definitions: future tails must replay it too
		spans = append(append([]qcache.Span{}, spans...), qcache.Span{Off: e.Watermark, Len: tail})
	}
	p.putEntry(u.File, priv, endOff, e.Records+uint64(records), spans)
	if err := eng.db.Merge(priv.db); err != nil {
		return records, tail, err
	}
	p.noteBytesSkipped(e.Watermark)
	return int(e.Records) + records, tail, nil
}

// putEntry stores a unit's per-file state, best-effort: a file that
// changed mid-scan, a watermark off a line boundary, or any store error
// simply leaves no entry behind.
func (p *ScanPlan) putEntry(file string, priv *Engine, endOff int64, records uint64, spans []qcache.Span) {
	if endOff <= 0 {
		return
	}
	f, err := os.Open(file)
	if err != nil {
		return
	}
	defer f.Close()
	size, h, err := calformat.QuickHash(f)
	if err != nil || size != endOff {
		return // grew or shrank since the scan; the watermark is not the file
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], endOff-1); err != nil || last[0] != '\n' {
		return // torn final line; a tail scan could not resume here
	}
	if len(spans) > maxMetaSpans {
		spans = []qcache.Span{{Off: 0, Len: endOff}}
	}
	e := &qcache.Entry{
		Plan:       p.cachePlan,
		File:       file,
		Watermark:  endOff,
		PrefixHash: h,
		Records:    records,
		MetaSpans:  spans,
		State:      priv.db.EncodeState(),
	}
	if p.cache.Put(e) != nil {
		p.prof.Add("cache", "store_errors", 1) // e.g. an unwritable cache directory
		return
	}
	p.mu.Lock()
	p.stats.CacheStores++
	p.mu.Unlock()
	p.prof.Add("cache", "stores", 1)
}

// metaSpansOf derives the metadata span list of a freshly scanned file
// from its block index: the byte ranges of blocks holding attr, node, or
// globals lines, coalesced. Without an index the whole prefix is one
// span (the incremental scan then replays it with a metadata-only text
// scan, still skipping record decode).
func metaSpansOf(idx *calformat.Index, endOff int64) []qcache.Span {
	if idx == nil {
		return []qcache.Span{{Off: 0, Len: endOff}}
	}
	var spans []qcache.Span
	for i := range idx.Blocks {
		b := &idx.Blocks[i]
		if b.MetaLines == 0 {
			continue
		}
		if n := len(spans); n > 0 && spans[n-1].Off+spans[n-1].Len == b.Offset {
			spans[n-1].Len += b.Length
		} else {
			spans = append(spans, qcache.Span{Off: b.Offset, Len: b.Length})
		}
	}
	return spans
}
