package query

// Index-aware scan planning: the bridge between the sidecar block indexes
// (internal/calformat/index.go) and query execution. A ScanPlan compiles
// a query's WHERE clause into zone-map tests and its referenced-attribute
// set into a decode projection, then plans each input file into one scan
// unit, skipping files — and, inside an indexed file, blocks — whose zone
// maps prove no record can match.
//
// Correctness invariants (pinned by FuzzIndexedQueryDiff and the calql
// byte-identity tests):
//
//   - Only non-negated WHERE conditions prune, and only conditions on
//     attributes that are not LET results (LET entries are appended at
//     query time and a file-provided entry of the same name is shadowed
//     only when the LET fires — excluded wholesale).
//   - A block is skipped only if some condition cannot match ANY entry
//     occurrence in it; the engine tests the last occurrence per record,
//     a subset, so skipping is conservative.
//   - Pruned blocks holding attr/node/globals definitions are passed with
//     a metadata-only scan (later blocks may reference their defs); only
//     definition-free blocks are seeked over.
//   - The decode projection is applied only to aggregating queries (their
//     result rows are built from key/result attributes, never raw
//     records) and keeps every attribute the query can observe: GROUP BY
//     keys, operator targets and their re-aggregation input names, WHERE
//     attributes, and LET sources and names.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/calql"
	"caligo/internal/contexttree"
	"caligo/internal/core"
	"caligo/internal/qcache"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

// Self-instrumentation of the index layer (docs/OBSERVABILITY.md).
var (
	telIdxFilesIndexed  = telemetry.NewCounter("caligo.index.files.indexed")
	telIdxFilesSkipped  = telemetry.NewCounter("caligo.index.files.skipped")
	telIdxBlocksScanned = telemetry.NewCounter("caligo.index.blocks.scanned")
	telIdxBlocksPruned  = telemetry.NewCounter("caligo.index.blocks.pruned")
	telIdxBlocksSeeked  = telemetry.NewCounter("caligo.index.blocks.seeked")
	telIdxRecordsPruned = telemetry.NewCounter("caligo.index.records.pruned")
	telIdxFallback      = telemetry.NewCounter("caligo.index.fallback")
)

// ScanOptions control the index-aware scan layer.
type ScanOptions struct {
	// UseIndex enables sidecar index use: file/block pruning and
	// projection pushdown. Off, every file is fully decoded (the pre-index
	// behavior, bit for bit).
	UseIndex bool
	// Cache enables the per-file aggregate state cache (internal/qcache):
	// a valid cached entry replaces the file scan with a state merge, an
	// append-grown file is scanned from its watermark only, and misses
	// store their state for next time. Only aggregating queries use it.
	Cache *qcache.Store
}

// ScanStats summarize what planning and scanning did, for EXPLAIN
// ANALYZE and tests.
type ScanStats struct {
	Files         int64
	FilesIndexed  int64
	FilesSkipped  int64
	Fallbacks     int64 // stale/corrupt/version-mismatched indexes ignored
	BlocksScanned int64
	BlocksPruned  int64
	BlocksSeeked  int64 // pruned blocks passed by seek (subset of pruned)
	RecordsPruned int64

	// Aggregate-cache outcome counts (zero unless ScanOptions.Cache set).
	CacheHits         int64 // files served whole from cached state
	CacheMisses       int64 // files scanned in full, state stored after
	CacheIncremental  int64 // appended files scanned from the watermark
	CacheStores       int64 // entries written (miss + incremental)
	CacheFallbacks    int64 // cache paths degraded to a full scan
	CacheBytesSkipped int64 // file bytes not re-read thanks to cached state
}

// pruneCond is one WHERE condition usable for zone pruning.
type pruneCond struct {
	attrName string
	op       calql.CondOp
	lit      string
	numLit   float64
	numOK    bool
}

// ScanPlan is the per-query compiled scan strategy. It is shared across
// scan workers; stats accumulation is mutex-protected.
type ScanPlan struct {
	q     *calql.Query
	opts  ScanOptions
	conds []pruneCond
	proj  map[string]bool

	// Aggregate-state cache (nil when disabled). Non-aggregating queries
	// never cache: their output is the record stream, not mergeable state.
	cache     *qcache.Store
	cachePlan string // canonical query fingerprint

	mu    sync.Mutex
	stats ScanStats

	// prof is the query profile the plan's index spans and cache counts go
	// to (NewExec sets it; nil: trace spans only).
	prof *trace.Profile
}

// NewScanPlan compiles the prunable conditions and decode projection of q.
func NewScanPlan(q *calql.Query, opts ScanOptions) *ScanPlan {
	p := &ScanPlan{q: q, opts: opts}
	if opts.Cache != nil && q.HasAggregation() {
		p.cache = opts.Cache
		p.cachePlan = qcache.CanonicalPlan(q)
	}
	if !opts.UseIndex {
		return p
	}
	letNames := map[string]bool{}
	for _, l := range q.Lets {
		letNames[l.Name] = true
	}
	for _, c := range q.Where {
		if c.Negate || letNames[c.Attr] {
			continue
		}
		pc := pruneCond{attrName: c.Attr, op: c.Op, lit: c.Value}
		// mirror compiledCond: the literal parsed as float64 decides
		// whether numeric-typed values compare numerically
		if f, err := strconv.ParseFloat(c.Value, 64); err == nil {
			pc.numLit, pc.numOK = f, true
		}
		p.conds = append(p.conds, pc)
	}
	p.proj = neededAttrs(q)
	return p
}

// neededAttrs returns the attribute set an aggregating query can observe
// on input records, or nil when projection must not be applied (the query
// returns raw records).
func neededAttrs(q *calql.Query) map[string]bool {
	if !q.HasAggregation() {
		return nil
	}
	need := map[string]bool{}
	for _, k := range q.GroupBy {
		need[k] = true
	}
	for _, op := range q.Ops {
		if op.Kind.NeedsTarget() {
			need[op.Target] = true
		}
		// re-aggregation input names (core.DB resolveRole): count
		// consumes aggregate.count, sum/min/max/scount/inclusive_sum
		// consume <kind>#<target>
		switch op.Kind {
		case core.OpCount:
			need[core.CountResultName] = true
		case core.OpSum, core.OpMin, core.OpMax, core.OpScount, core.OpInclusiveSum:
			need[op.Kind.String()+"#"+op.Target] = true
		}
	}
	for _, c := range q.Where {
		need[c.Attr] = true
	}
	for _, l := range q.Lets {
		need[l.Name] = true // a file entry of the LET's name is observable
		for _, a := range l.Args {
			need[a] = true
		}
	}
	return need
}

// Projection returns the sorted kept-attribute list, or nil when
// projection is inactive. For EXPLAIN.
func (p *ScanPlan) Projection() []string {
	if p.proj == nil {
		return nil
	}
	out := make([]string, 0, len(p.proj))
	for a := range p.proj {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// projCoversAll reports whether the projection keeps every attribute that
// actually occurs in the indexed file — then the per-entry filter can only
// pass entries through, so skipping it saves the lookup cost.
func (p *ScanPlan) projCoversAll(idx *calformat.Index) bool {
	if idx == nil {
		return false
	}
	for i := range idx.Attrs {
		a := &idx.Attrs[i]
		if a.Entries > 0 && !p.proj[a.Name] {
			return false
		}
	}
	return true
}

// PrunableConds renders the conditions zone maps are tested against. For
// EXPLAIN.
func (p *ScanPlan) PrunableConds() []string {
	var out []string
	for _, c := range p.conds {
		out = append(out, condString(c))
	}
	return out
}

func condString(c pruneCond) string {
	switch c.op {
	case calql.CondExist:
		return c.attrName
	case calql.CondEq:
		return c.attrName + " = " + c.lit
	case calql.CondLt:
		return c.attrName + " < " + c.lit
	case calql.CondLe:
		return c.attrName + " <= " + c.lit
	case calql.CondGt:
		return c.attrName + " > " + c.lit
	case calql.CondGe:
		return c.attrName + " >= " + c.lit
	}
	return c.attrName + " ? " + c.lit
}

// Stats returns a snapshot of the accumulated scan statistics.
func (p *ScanPlan) Stats() ScanStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// canMatchZone reports whether the condition could be satisfied by some
// entry occurrence summarized by the block's zone state. attrIdx is the
// condition attribute's index-table position (-1: absent from the file).
// Any uncertainty returns true (scan the block).
func (c *pruneCond) canMatchZone(idx *calformat.Index, b *calformat.Block, attrIdx int) bool {
	if attrIdx < 0 {
		return false // attribute occurs nowhere in the file
	}
	z := b.Zone(attrIdx)
	if z == nil || z.Count == 0 {
		return false // attribute occurs nowhere in the block
	}
	if c.op == calql.CondExist {
		return true
	}
	switch idx.Attrs[attrIdx].Type {
	case attr.Int, attr.Uint, attr.Float, attr.Bool:
		if !c.numOK || !z.HasNum {
			// non-numeric literal: the engine compares text; no bounds
			return true
		}
		switch c.op {
		case calql.CondEq:
			return c.numLit >= z.Min && c.numLit <= z.Max
		case calql.CondLt:
			return z.Min < c.numLit
		case calql.CondLe:
			return z.Min <= c.numLit
		case calql.CondGt:
			return z.Max > c.numLit
		case calql.CondGe:
			return z.Max >= c.numLit
		}
		return true
	case attr.String:
		if z.Overflow || len(z.Strs) == 0 {
			return true
		}
		for _, s := range z.Strs {
			cmp := strings.Compare(s, c.lit)
			var ok bool
			switch c.op {
			case calql.CondEq:
				ok = cmp == 0
			case calql.CondLt:
				ok = cmp < 0
			case calql.CondLe:
				ok = cmp <= 0
			case calql.CondGt:
				ok = cmp > 0
			case calql.CondGe:
				ok = cmp >= 0
			default:
				ok = true
			}
			if ok {
				return true
			}
		}
		return false
	}
	return true // other types carry no zone detail
}

// evalFile tests every block of an index against the prunable conditions.
// skipBlock[i] means block i cannot contribute a matching record;
// skipFile means none can (the file need not be opened at all).
func (p *ScanPlan) evalFile(idx *calformat.Index) (skipFile bool, skipBlock []bool) {
	attrIdx := make([]int, len(p.conds))
	for i, c := range p.conds {
		attrIdx[i] = idx.AttrIndex(c.attrName)
	}
	skipBlock = make([]bool, len(idx.Blocks))
	skipFile = true
	for bi := range idx.Blocks {
		b := &idx.Blocks[bi]
		if b.Records == 0 {
			skipBlock[bi] = true // nothing to prune, nothing to scan
			continue
		}
		for ci := range p.conds {
			if !p.conds[ci].canMatchZone(idx, b, attrIdx[ci]) {
				skipBlock[bi] = true
				break
			}
		}
		if !skipBlock[bi] {
			skipFile = false
		}
	}
	return skipFile, skipBlock
}

// Unit is one scan work item: one input file, or the one input stream.
// The file is the unit of parallelism, as in the paper's query application
// (Section IV-C). Units are in input order; scanning them in that order
// reproduces the serial full-scan record order.
type Unit struct {
	File string
	Idx  *calformat.Index // nil: plain full scan
	Skip []bool           // per-block skip flags (len == len(Idx.Blocks))

	// stream, when set, is the unit's already-open input (Input.Stream):
	// there is no file to open, index or cache.
	stream io.ReadCloser

	// Aggregate-cache routing (see cachescan.go). cacheNone means the
	// unit scans normally with no store afterwards.
	cacheMode  int
	cacheEntry *qcache.Entry // hit/incremental: the validated entry
}

// PlanUnits loads each file's index (when enabled and present), routes
// the file through the aggregate cache, and drops files the zone maps
// fully exclude: at most one unit per file, in input order. The int is
// ignored; it is kept for bench/, which passes one.
func (p *ScanPlan) PlanUnits(files []string, _ int) []Unit {
	if len(files) == 0 {
		return nil // nothing to plan: an emulated rank past the last file
	}
	sp := p.prof.Begin("query.index", 0)
	units := make([]Unit, 0, len(files))
	var indexed, skipped, fallbacks int64
	var cached [cacheMissMode + 1]int64 // files per cache routing mode
	for _, f := range files {
		u := Unit{File: f}
		if p.cache != nil {
			// a miss — or a file the cache could not examine, whose scan
			// will surface the real error — plans like an uncached file,
			// scans in full and stores its state afterwards
			u.cacheMode = cacheMissMode
			mode, e := p.planCache(f)
			cached[mode]++
			if e != nil { // hit or incremental: the entry stands in for the index
				u.cacheMode, u.cacheEntry = mode, e
				units = append(units, u)
				continue
			}
		}
		if p.opts.UseIndex {
			idx, err := calformat.LoadIndex(f)
			if err == nil {
				indexed++
				telIdxFilesIndexed.Inc()
				skipFile, skipBlock := p.evalFile(idx)
				if skipFile {
					skipped++
					telIdxFilesSkipped.Inc()
					telIdxRecordsPruned.Add(idx.Records)
					p.mu.Lock()
					p.stats.RecordsPruned += int64(idx.Records)
					p.mu.Unlock()
					continue
				}
				u.Idx, u.Skip = idx, skipBlock
			} else if !errors.Is(err, fs.ErrNotExist) {
				fallbacks++
				telIdxFallback.Inc()
				p.prof.Add("index", indexFallback(err), 1)
			}
		}
		units = append(units, u)
	}
	hits, misses, incr := cached[cacheHitMode], cached[cacheMissMode], cached[cacheIncrMode]
	p.mu.Lock()
	p.stats.Files += int64(len(files))
	p.stats.FilesIndexed += indexed
	p.stats.FilesSkipped += skipped
	p.stats.Fallbacks += fallbacks
	p.stats.CacheHits += hits
	p.stats.CacheMisses += misses
	p.stats.CacheIncremental += incr
	p.mu.Unlock()
	sp.ArgInt("files", int64(len(files)))
	sp.ArgInt("indexed", indexed)
	sp.ArgInt("files_skipped", skipped)
	sp.ArgInt("fallbacks", fallbacks)
	sp.End()
	if p.cache != nil {
		p.prof.Add("cache", "hits", hits)
		p.prof.Add("cache", "misses", misses)
		p.prof.Add("cache", "incremental", incr)
		qcache.TelHits.Add(uint64(hits))
		qcache.TelMisses.Add(uint64(misses))
		qcache.TelIncremental.Add(uint64(incr))
	}
	return units
}

// indexFallback names why a present sidecar index was unusable, as the
// index phase stat that counts it.
func indexFallback(err error) string {
	switch {
	case errors.Is(err, calformat.ErrIndexStale):
		return "fallback_stale"
	case errors.Is(err, calformat.ErrIndexCorrupt):
		return "fallback_corrupt"
	case errors.Is(err, calformat.ErrIndexVersion):
		return "fallback_version"
	}
	return "fallback_unreadable"
}

// ScanUnit feeds the unit's records through the engine: pruned blocks are
// seeked over (definition-free) or metadata-scanned, live blocks are
// decoded under the plan's projection. When the aggregate cache routed
// the unit (cachescan.go), cached state replaces some or all of the
// decode work. tree goes to the unit's calformat.Reader as its optional
// node sink; a query has no use for one and passes nil. Returns the
// records decoded and bytes read.
func (p *ScanPlan) ScanUnit(eng *Engine, u Unit, reg *attr.Registry, tree *contexttree.Tree) (int, int64, error) {
	return p.scanUnit(context.Background(), eng, u, reg, tree)
}

// scanUnit is ScanUnit under ctx, which drain polls.
func (p *ScanPlan) scanUnit(ctx context.Context, eng *Engine, u Unit, reg *attr.Registry, tree *contexttree.Tree) (int, int64, error) {
	switch u.cacheMode {
	case cacheHitMode:
		return p.scanCacheHit(ctx, eng, u, reg, tree)
	case cacheIncrMode:
		return p.scanCacheIncr(ctx, eng, u, reg, tree)
	case cacheMissMode:
		return p.scanCacheMiss(ctx, eng, u, reg, tree)
	}
	n, bytes, _, err := p.scanUnitInto(ctx, eng, eng, u, reg, tree)
	return n, bytes, err
}

// drain feeds every record rd yields, up to its limit or EOF, through the
// engine and returns how many there were. rec is the one record decoded
// into, reused across calls. name labels a decode error with its input.
// Every 1024 records it polls ctx: cancelled, it returns ctx.Err(), never
// an early EOF whose partial state a cache miss would store.
func drain(ctx context.Context, rd *calformat.Reader, eng *Engine, rec *snapshot.FlatRecord, name string) (int, error) {
	done := ctx.Done() // nil when ctx cannot be cancelled: the poll is free
	for n := 0; ; n++ {
		if n&1023 == 0 {
			select {
			case <-done:
				return n, ctx.Err()
			default:
			}
		}
		err := rd.NextInto(rec)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("%s: %w", name, err)
		}
		if err := eng.Process(*rec); err != nil {
			return n, err
		}
	}
}

// scanUnitInto is the cache-oblivious scan body: the unit's records go
// into eng, decoded through the reader of own — the worker's engine, which
// is eng itself unless the aggregate cache interposed a per-file one. The
// extra return is the reader's final byte offset — the watermark a stored
// cache entry covers.
func (p *ScanPlan) scanUnitInto(ctx context.Context, own, eng *Engine, u Unit, reg *attr.Registry, tree *contexttree.Tree) (int, int64, int64, error) {
	src := u.stream
	if src == nil {
		f, err := os.Open(u.File)
		if err != nil {
			return 0, 0, 0, err
		}
		src = f
	}
	defer src.Close()
	rd := own.reader(src, reg, tree)
	if p.proj != nil && !p.projCoversAll(u.Idx) {
		rd.SetProjection(p.proj)
	}

	var rec snapshot.FlatRecord
	if u.Idx == nil {
		// no index: the whole input is one live run, to EOF
		records, err := drain(ctx, rd, eng, &rec, u.File)
		return records, rd.Offset(), rd.Offset(), err
	}

	sp := p.prof.Begin("query.index", 0)
	defer sp.End()
	var scanned, pruned, seeked, recsPruned, seekedBytes int64
	records, blocks := 0, u.Idx.Blocks
	const (
		actFull = iota
		actMeta
		actSeek
	)
	actionOf := func(bi int) int {
		if !u.Skip[bi] {
			return actFull
		}
		if blocks[bi].MetaLines == 0 {
			return actSeek
		}
		return actMeta
	}
	for bi := 0; bi < len(blocks); {
		act := actionOf(bi)
		// coalesce a run of same-action blocks into one operation
		end := bi + 1
		for end < len(blocks) && actionOf(end) == act {
			end++
		}
		runEnd := blocks[end-1].Offset + blocks[end-1].Length
		for i := bi; i < end; i++ {
			b := &blocks[i]
			switch act {
			case actFull:
				scanned++
			case actMeta:
				pruned++
				recsPruned += int64(b.Records)
			case actSeek:
				pruned++
				seeked++
				recsPruned += int64(b.Records)
			}
		}
		switch act {
		case actSeek:
			seekedBytes += runEnd - rd.Offset()
			if err := rd.SkipTo(runEnd); err != nil {
				return records, 0, 0, fmt.Errorf("%s: %w", u.File, err)
			}
		case actMeta:
			if err := rd.ScanMetaUntil(runEnd); err != nil {
				return records, 0, 0, fmt.Errorf("%s: %w", u.File, err)
			}
		case actFull:
			rd.SetLimit(runEnd)
			n, err := drain(ctx, rd, eng, &rec, u.File)
			records += n
			if err != nil {
				return records, 0, 0, err
			}
		}
		bi = end
	}

	telIdxBlocksScanned.Add(uint64(scanned))
	telIdxBlocksPruned.Add(uint64(pruned))
	telIdxBlocksSeeked.Add(uint64(seeked))
	telIdxRecordsPruned.Add(uint64(recsPruned))
	p.mu.Lock()
	p.stats.BlocksScanned += scanned
	p.stats.BlocksPruned += pruned
	p.stats.BlocksSeeked += seeked
	p.stats.RecordsPruned += recsPruned
	p.mu.Unlock()
	sp.ArgInt("blocks_scanned", scanned)
	sp.ArgInt("blocks_pruned", pruned)
	sp.ArgInt("blocks_seeked", seeked)
	sp.ArgInt("records_pruned", recsPruned)
	return records, rd.Offset() - seekedBytes, rd.Offset(), nil
}

// ScanFiles plans the files as one worker's units and scans them in order:
// Exec.Local's single-worker case, kept for bench/'s staged replay.
func (p *ScanPlan) ScanFiles(eng *Engine, files []string, reg *attr.Registry, tree *contexttree.Tree) (int, int64, error) {
	records := 0
	var bytes int64
	for _, u := range p.PlanUnits(files, 0) {
		n, nb, err := p.ScanUnit(eng, u, reg, tree)
		records += n
		bytes += nb
		if err != nil {
			return records, bytes, err
		}
	}
	return records, bytes, nil
}
