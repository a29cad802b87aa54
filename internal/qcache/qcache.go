// Package qcache is a versioned on-disk cache of per-file partial
// aggregate state. The paper's merge-tree decomposition (Section IV-C)
// makes the expensive part of a query — scanning and aggregating one
// .cali file — a pure function of (file contents, query shape), so the
// per-file aggregation database state can be memoized: a later run of
// the same query shape merges the cached state instead of re-decoding
// the file.
//
// An entry is keyed by a canonical query fingerprint (the normalized
// plan: LET / WHERE / GROUP BY / aggregate operators — ORDER BY, LIMIT,
// SELECT, post-aggregation operators, and FORMAT are excluded because
// they run after the merge) plus the file's identity (byte watermark +
// the CALIDX1-style quick head/tail hash over that prefix). Because the
// identity hashes a *prefix*, an appended file — the common case for
// live capture rings and long-running jobs — keeps its entry usable:
// the scanner seeks to the watermark, aggregates only the tail, merges
// with the cached state, and re-stores (append-aware incremental scan,
// see internal/query).
//
// Entries carry a trailing FNV-1a self-checksum; any corruption,
// truncation, version skew, or fingerprint collision decodes to an
// error and the caller falls back to a full scan. The cached state blob
// is core.DB.EncodeState output: registry-independent and mergeable
// into any database with an equal scheme.
package qcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"caligo/internal/calql"
	"caligo/internal/telemetry"
)

// Self-instrumentation (docs/OBSERVABILITY.md). The hit/miss/incremental
// classification counters are bumped by the scan planner (internal/query);
// the store-health counters and gauges are bumped here.
var (
	TelHits         = telemetry.NewCounter("caligo.qcache.hits")
	TelMisses       = telemetry.NewCounter("caligo.qcache.misses")
	TelIncremental  = telemetry.NewCounter("caligo.qcache.incremental")
	TelBytesSkipped = telemetry.NewCounter("caligo.qcache.bytes_skipped")
	TelStores       = telemetry.NewCounter("caligo.qcache.stores")
	TelFallback     = telemetry.NewCounter("caligo.qcache.fallback")
	TelEvictions    = telemetry.NewCounter("caligo.qcache.evictions")
	gStoreBytes     = telemetry.NewGauge("caligo.qcache.store.bytes")
	gStoreEntries   = telemetry.NewGauge("caligo.qcache.store.entries")
)

// Entry-file binary format: magic, uvarint fields, the state blob, and a
// trailing FNV-1a self-checksum (the index.go idiom).
const (
	entryMagic   = "CALQC1\n"
	entryVersion = 1

	// EntryExt is the cache entry file extension.
	EntryExt = ".qce"
)

// Decode failure classes (all of them mean "fall back to a full scan").
var (
	ErrCorrupt = errors.New("qcache: entry corrupt")
	ErrVersion = errors.New("qcache: entry version mismatch")
)

// Span is a half-open byte range [Off, Off+Len) of the data file.
type Span struct {
	Off, Len int64
}

// Entry is one cached per-file aggregate state.
type Entry struct {
	// Plan is the canonical query fingerprint text (CanonicalPlan). It is
	// stored in full and compared on load, so fingerprint-hash collisions
	// in the entry file name cannot serve wrong state.
	Plan string
	// File is the absolute path of the data file the state was computed
	// from.
	File string
	// Watermark is the number of leading bytes of the file the state
	// covers (the file's size when the entry was stored).
	Watermark int64
	// PrefixHash is calformat's quick hash over [0, Watermark); see
	// calformat.CheckIdentity.
	PrefixHash uint64
	// Records is the number of records decoded to produce the state
	// (informational; zone-pruned scans decode fewer than the file holds).
	Records uint64
	// MetaSpans lists the byte ranges within [0, Watermark) that contain
	// metadata lines (attr/node/globals definitions). An incremental tail
	// scan must replay these — later records reference their definitions —
	// and may seek over everything else.
	MetaSpans []Span
	// State is the core.DB.EncodeState blob of the per-file aggregation.
	State []byte
}

// Encode renders the entry in its binary on-disk form.
func (e *Entry) Encode() []byte {
	b := make([]byte, 0, 96+len(e.Plan)+len(e.File)+16*len(e.MetaSpans)+len(e.State))
	b = append(b, entryMagic...)
	b = binary.AppendUvarint(b, entryVersion)
	b = appendString(b, e.Plan)
	b = appendString(b, e.File)
	b = binary.AppendUvarint(b, uint64(e.Watermark))
	b = binary.LittleEndian.AppendUint64(b, e.PrefixHash)
	b = binary.AppendUvarint(b, e.Records)
	b = binary.AppendUvarint(b, uint64(len(e.MetaSpans)))
	for _, s := range e.MetaSpans {
		b = binary.AppendUvarint(b, uint64(s.Off))
		b = binary.AppendUvarint(b, uint64(s.Len))
	}
	b = binary.AppendUvarint(b, uint64(len(e.State)))
	b = append(b, e.State...)
	h := fnv.New64a()
	h.Write(b)
	return binary.LittleEndian.AppendUint64(b, h.Sum64())
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// cursor is a sticky-error decode position over an entry buffer.
type cursor struct {
	buf []byte
	pos int
	err error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		c.fail("truncated uvarint at offset %d", c.pos)
		return 0
	}
	c.pos += n
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if c.pos+8 > len(c.buf) {
		c.fail("truncated u64 at offset %d", c.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.buf[c.pos:])
	c.pos += 8
	return v
}

func (c *cursor) str() string {
	n := c.uvarint()
	if c.err != nil {
		return ""
	}
	if n > uint64(len(c.buf)-c.pos) {
		c.fail("truncated string (%d bytes) at offset %d", n, c.pos)
		return ""
	}
	s := string(c.buf[c.pos : c.pos+int(n)])
	c.pos += int(n)
	return s
}

func (c *cursor) bytes() []byte {
	n := c.uvarint()
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.buf)-c.pos) {
		c.fail("truncated blob (%d bytes) at offset %d", n, c.pos)
		return nil
	}
	b := c.buf[c.pos : c.pos+int(n) : c.pos+int(n)]
	c.pos += int(n)
	return b
}

// DecodeEntry parses an entry file body, verifying the magic, version,
// and trailing checksum.
func DecodeEntry(data []byte) (*Entry, error) {
	if len(data) < len(entryMagic)+8 || string(data[:len(entryMagic)]) != entryMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	c := &cursor{buf: body, pos: len(entryMagic)}
	if v := c.uvarint(); c.err == nil && v != entryVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrVersion, v, entryVersion)
	}
	e := &Entry{}
	e.Plan = c.str()
	e.File = c.str()
	e.Watermark = int64(c.uvarint())
	e.PrefixHash = c.u64()
	e.Records = c.uvarint()
	nSpans := c.uvarint()
	if c.err == nil && nSpans > uint64(len(body)) {
		return nil, fmt.Errorf("%w: implausible span count %d", ErrCorrupt, nSpans)
	}
	for i := uint64(0); i < nSpans && c.err == nil; i++ {
		e.MetaSpans = append(e.MetaSpans, Span{
			Off: int64(c.uvarint()),
			Len: int64(c.uvarint()),
		})
	}
	e.State = c.bytes()
	if c.err != nil {
		return nil, c.err
	}
	if c.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-c.pos)
	}
	return e, nil
}

// CanonicalPlan renders the cache fingerprint of a query: the parts of
// the plan that shape per-file aggregate state. LET definitions,
// GROUP BY keys, and aggregate operators keep their order (they shape
// the scheme and the state layout); WHERE conditions are sorted (AND is
// commutative); SELECT, post-aggregation operators, ORDER BY, LIMIT,
// and FORMAT are excluded — they run after the per-file merge and
// cannot change the state.
func CanonicalPlan(q *calql.Query) string {
	var sb strings.Builder
	sb.WriteString("caligo-plan-v1")
	sb.WriteString("|let:")
	for _, l := range q.Lets {
		sb.WriteString(strconv.Quote(l.String()))
	}
	conds := make([]string, len(q.Where))
	for i, c := range q.Where {
		conds[i] = c.String()
	}
	sort.Strings(conds)
	sb.WriteString("|where:")
	for _, c := range conds {
		sb.WriteString(strconv.Quote(c))
	}
	sb.WriteString("|groupby:")
	for _, k := range q.GroupBy {
		sb.WriteString(strconv.Quote(k))
	}
	sb.WriteString("|ops:")
	for _, o := range q.Ops {
		sb.WriteString(strconv.Quote(o.String()))
	}
	return sb.String()
}

// hash64 is the FNV-1a name hash used for entry addressing.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
