package calformat

// Byte-oriented .cali decoder. This is the production read path: it works
// directly on the scanner's byte buffer with index-based field spans (no
// per-line string copy, field slice, or maps), unescapes only into a
// reused scratch buffer when an escape byte is actually present, and
// interns attribute names and string values through a registry-backed
// table so each distinct value is allocated once per stream set. Together
// with NextInto (caller-owned record reuse) the steady-state decode loop
// allocates nothing per record. Context paths expand from a reader-owned
// node arena (nodeRec), so a stream that defines a fresh node before
// every record — the shape of an aggregated profile — costs no more per
// record than one that reuses a single node. Node and ctx lines in the
// layout our own Writer emits skip the field spans altogether and decode
// positionally ("The canonical layout", below); the span scanner stays as
// the only reader of foreign, legacy, escaped or hand-edited lines and the
// only producer of errors. Semantics are pinned to the legacy decoder in
// legacy_test.go by FuzzDecodeDiff.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unsafe"

	"caligo/internal/attr"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
)

// fieldSpan locates one key=value field as offsets into the current line
// buffer. The esc flags record whether the raw bytes contain a backslash
// escape and therefore need unescaping before use.
type fieldSpan struct {
	keyLo, keyHi int32
	valLo, valHi int32
	keyEsc       bool
	valEsc       bool
}

// listElem locates one element of a ':'-separated list value, as offsets
// into the raw (still escaped) value bytes.
type listElem struct {
	lo, hi int32
	esc    bool
}

// bstr views b as a string without copying. The result aliases b's
// backing array (the scanner buffer or the scratch buffer), both of which
// are overwritten by the next record: callees must fully consume the
// string (parse it, compare it) and never retain it. Errors built from
// such strings are safe because every Reader error path flattens them
// through errf (fmt.Sprintf) before they escape.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// unescapeAppend appends the unescaped form of src to dst. Semantics
// match unescape in legacy_test.go: \n and \r decode to newline and
// carriage return, any other escaped byte decodes to itself, and a
// trailing lone backslash is kept literal.
func unescapeAppend(dst, src []byte) []byte {
	for i := 0; i < len(src); i++ {
		if src[i] == '\\' && i+1 < len(src) {
			i++
			switch src[i] {
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			default:
				dst = append(dst, src[i])
			}
			continue
		}
		dst = append(dst, src[i])
	}
	return dst
}

// nodeRec is one element of the Reader's node arena: a node line as
// defined, with everything readCtxLine needs to expand its root path
// without looking anything up. Parents always precede children in the
// arena, so a walk along parent indexes terminates.
type nodeRec struct {
	entry  attr.Entry
	parent int32              // arena index of the parent, -1 at a root
	depth  int32              // entries on the root path, this one included
	kept   int32              // of those, entries the projection keeps
	keep   bool               // the projection keeps entry
	sink   contexttree.NodeID // this node in the Reader's tree, if it has one
}

// nodeDenseSlack is how far past twice the arena size a node id may lie
// and still be indexed by slice: writers number nodes densely from 0, so
// real streams never leave the slice, while a hostile id cannot make it
// larger than a constant factor of the nodes actually defined.
const nodeDenseSlack = 64

// Reader parses a .cali stream. Stream-local attribute ids are remapped
// into the supplied registry, so multiple files can be read into one
// shared registry (the basis for cross-process aggregation of
// per-process files). Stream-local node ids resolve through the Reader's
// own arena; a non-nil tree additionally receives every node.
//
// Reader is not safe for concurrent use.
type Reader struct {
	sc       *bufio.Scanner
	src      io.Reader
	seeker   io.Seeker // src if it supports seeking, else nil
	reg      *attr.Registry
	tree     *contexttree.Tree // optional sink for node definitions
	attrMap  map[int64]attr.Attribute
	globals  []attr.Entry
	line     int
	consumed int   // exact bytes of input consumed by the last scanned token
	offset   int64 // absolute stream offset after the last scanned token
	limit    int64 // NextInto stops (io.EOF) at this offset; 0 = none
	metaSeen int   // metadata lines (attr/node/globals) processed so far

	// Reused per-record decode state. None of it escapes a NextInto call
	// except through explicit copies (interning, record entries).
	fields     []fieldSpan
	refElems   []listElem
	attrElems  []listElem
	dataElems  []listElem
	scratch    []byte // unescaped value bytes (one value live at a time)
	keyScratch []byte // unescaped key bytes for findField comparisons
	scanBuf    []byte // scanner buffer, kept so SkipTo can rebuild without realloc
	interned   map[string]string

	// Node table. A redefined id appends a new arena element and repoints
	// the id, so children defined earlier keep the parent they named
	// (appended streams renumber from 0).
	nodes   []nodeRec
	nodeIdx []int32         // stream node id -> arena index + 1; 0 = undefined
	nodeFar map[int64]int32 // arena index of ids outside the dense range

	// Projection pushdown (SetProjection): entries of attributes outside
	// keep are dropped during decode instead of materialized.
	keep map[string]bool
	drop map[int64]bool // stream-local ids of attrs outside keep
}

// NewReader returns a Reader merging the stream's attributes into reg.
// If tree is non-nil the stream's context nodes are merged into it as
// well (cali-stat and the indexer report its size); records decode the
// same either way, so readers that only want records pass nil.
func NewReader(rd io.Reader, reg *attr.Registry, tree *contexttree.Tree) *Reader {
	r := &Reader{
		attrMap:  map[int64]attr.Attribute{},
		interned: map[string]string{},
		scanBuf:  make([]byte, 64*1024),
	}
	r.Reset(rd, reg, tree)
	return r
}

// Reset returns the Reader to its just-constructed state over a new
// source, keeping only the capacity of its buffers: the scan buffer, the
// node arena and id table (truncated, so no id of the previous stream
// resolves), and the decode scratch. Attribute map, globals, offsets,
// limit, line count and projection all start fresh; the intern table
// survives only while reg is the same registry, whose strings it caches.
// A scan worker resets one Reader per input file instead of building one
// (query.Engine owns it), so a worker grows one arena for all its files.
func (r *Reader) Reset(rd io.Reader, reg *attr.Registry, tree *contexttree.Tree) {
	if reg != r.reg {
		clear(r.interned)
	}
	clear(r.attrMap)
	r.src, r.reg, r.tree = rd, reg, tree
	r.seeker, _ = rd.(io.Seeker)
	r.globals = nil // handed out by Globals: never reuse its backing array
	r.line, r.consumed, r.offset, r.limit, r.metaSeen = 0, 0, 0, 0, 0
	r.nodes, r.nodeIdx, r.nodeFar = r.nodes[:0], r.nodeIdx[:0], nil
	r.keep, r.drop = nil, nil
	r.newScanner()
}

// newScanner (re)builds the line scanner over src, reusing the kept
// buffer. Called at construction and after every SkipTo seek (a
// bufio.Scanner cannot reposition once it has buffered input).
func (r *Reader) newScanner() {
	sc := bufio.NewScanner(r.src)
	sc.Buffer(r.scanBuf, 16*1024*1024)
	sc.Split(r.scanLine)
	r.sc = sc
}

// scanLine is a bufio.SplitFunc that, unlike bufio.ScanLines, records the
// exact number of input bytes each token consumed (including the newline
// and any carriage returns) so the bytes-read counter can be exact. It
// does not strip '\r'; the decode loop trims all trailing carriage
// returns itself.
func (r *Reader) scanLine(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		r.consumed = i + 1
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		r.consumed = len(data)
		return len(data), data, nil
	}
	return 0, nil, nil
}

// Globals returns the metadata entries read so far.
func (r *Reader) Globals() []attr.Entry { return r.globals }

// Offset returns the absolute stream offset after the last line consumed.
// Lines land on exact block boundaries (index.go), so this is the anchor
// for skipping pruned blocks.
func (r *Reader) Offset() int64 { return r.offset }

// MetaLines returns the count of metadata lines (attr, node, globals)
// processed so far. The standalone indexer samples it at block boundaries
// to record which blocks can be seek-skipped outright.
func (r *Reader) MetaLines() int { return r.metaSeen }

// SetLimit makes NextInto report io.EOF once the stream offset reaches
// off, without consuming past it. Zero clears the limit. Used to stop a
// full scan at a block boundary so the next block can be skipped.
func (r *Reader) SetLimit(off int64) { r.limit = off }

// SkipTo repositions the stream at absolute offset off (a block boundary
// from the index) without reading the skipped bytes. It requires a
// seekable source and only moves forward.
func (r *Reader) SkipTo(off int64) error {
	if r.seeker == nil {
		return fmt.Errorf("calformat: SkipTo: source is not seekable")
	}
	if off < r.offset {
		return fmt.Errorf("calformat: SkipTo: cannot seek backwards (%d < %d)", off, r.offset)
	}
	if off == r.offset {
		return nil
	}
	if _, err := r.seeker.Seek(off, io.SeekStart); err != nil {
		return err
	}
	r.offset = off
	r.newScanner()
	return nil
}

// ScanMetaUntil consumes lines up to absolute offset limit, processing
// only metadata (attr, node, globals) and skipping snapshot records
// without decoding them. It is the cheap way to pass over a pruned block
// whose metadata later blocks may depend on. The limit must be a line
// boundary (it is, when it comes from the index).
func (r *Reader) ScanMetaUntil(limit int64) error {
	for r.offset < limit {
		line, ok := r.nextLine()
		if !ok {
			if err := r.sc.Err(); err != nil {
				return err
			}
			return io.ErrUnexpectedEOF
		}
		if _, err := r.decodeLine(line, nil); err != nil {
			return err
		}
	}
	if r.offset != limit {
		return fmt.Errorf("calformat: block boundary %d is not a line boundary (at %d)", limit, r.offset)
	}
	return nil
}

// SetProjection restricts decoding to the named attributes: entries of
// any other attribute are validated but not materialized into the
// records NextInto returns. nil restores full decoding. Must be set
// before reading begins (definitions record whether they are kept as
// they are read).
func (r *Reader) SetProjection(keep map[string]bool) {
	r.keep = keep
	r.drop = nil
	if keep != nil {
		r.drop = map[int64]bool{}
	}
}

func (r *Reader) errf(format string, args ...any) error {
	telDecodeErrors.Inc()
	return fmt.Errorf("calformat: line %d: %s", r.line, fmt.Sprintf(format, args...))
}

// intern returns a canonical heap copy of b. A per-reader map serves the
// hot path without locking; misses fall through to the registry-shared
// table so distinct values are allocated once across all readers on the
// same registry.
func (r *Reader) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := r.interned[string(b)]; ok { // alloc-free lookup
		return s
	}
	s := r.reg.Intern(b)
	r.interned[s] = s
	telInterned.Inc()
	return s
}

// unescaped returns the unescaped form of raw. When no escape byte is
// present it returns raw itself; otherwise it decodes into the reused
// scratch buffer. At most one unescaped value is live at a time: consume
// the result before the next unescaped call.
func (r *Reader) unescaped(raw []byte, esc bool) []byte {
	if !esc {
		return raw
	}
	r.scratch = unescapeAppend(r.scratch[:0], raw)
	telScratchBytes.Add(uint64(len(r.scratch)))
	return r.scratch
}

// parseValue parses value bytes as the given type. String values are
// interned (Variant retains the string); other types parse from a
// transient no-copy view.
func (r *Reader) parseValue(b []byte, t attr.Type) (attr.Variant, error) {
	if t == attr.String {
		return attr.StringV(r.intern(b)), nil
	}
	return attr.ParseAs(bstr(b), t)
}

// nodeAt returns the arena index the stream node id currently names.
func (r *Reader) nodeAt(id int64) (int32, bool) {
	if id >= 0 && id < int64(len(r.nodeIdx)) && r.nodeIdx[id] != 0 {
		return r.nodeIdx[id] - 1, true
	}
	at, ok := r.nodeFar[id]
	return at, ok
}

// defineNode defines stream node id as the entry (a, v) under the arena
// node parent (-1: a root): it derives the node's path bookkeeping from
// the parent's, applies the projection to stream attribute aid, mirrors
// the node into the tree sink, appends it to the arena and points id at
// it. Both line scanners end a node line here.
func (r *Reader) defineNode(id, aid int64, parent int32, a attr.Attribute, v attr.Variant) {
	n := nodeRec{entry: attr.Entry{Attr: a, Value: v}, parent: parent, sink: contexttree.InvalidNode}
	if parent >= 0 {
		p := &r.nodes[parent]
		n.depth, n.kept, n.sink = p.depth, p.kept, p.sink
	}
	n.depth++
	if n.keep = !r.drop[aid]; n.keep {
		n.kept++
	}
	if r.tree != nil {
		n.sink = r.tree.GetChild(n.sink, a, v)
	}
	at := int32(len(r.nodes))
	r.nodes = append(r.nodes, n)
	if id >= 0 && id < int64(2*len(r.nodes)+nodeDenseSlack) {
		for int64(len(r.nodeIdx)) <= id {
			r.nodeIdx = append(r.nodeIdx, 0)
		}
		r.nodeIdx[id] = at + 1
		return
	}
	if r.nodeFar == nil {
		r.nodeFar = map[int64]int32{}
	}
	r.nodeFar[id] = at
}

// expandPath appends the kept part of arena node at's root path to *dst,
// root first, and returns the path's full length (projected-out entries
// included).
func (r *Reader) expandPath(at int32, dst *snapshot.FlatRecord) int {
	leaf := &r.nodes[at]
	i := len(*dst) + int(leaf.kept)
	*dst = slices.Grow(*dst, int(leaf.kept))[:i]
	for ; at >= 0; at = r.nodes[at].parent {
		if n := &r.nodes[at]; n.keep {
			i--
			(*dst)[i] = n.entry
		}
	}
	return int(leaf.depth)
}

// immediate appends the immediate entry (a, raw parsed as a's type) to
// *dst. When the projection drops stream attribute aid the entry is only
// validated, so error behavior matches the unprojected scan byte for
// byte (a string cannot fail to parse, so its intern copy is skipped).
// The error is attr.ParseAs's.
func (r *Reader) immediate(dst *snapshot.FlatRecord, aid int64, a attr.Attribute, raw []byte) error {
	if r.drop != nil && r.drop[aid] {
		if a.Type() == attr.String {
			return nil
		}
		_, err := attr.ParseAs(bstr(raw), a.Type())
		return err
	}
	v, err := r.parseValue(raw, a.Type())
	if err != nil {
		return err
	}
	*dst = append(*dst, attr.Entry{Attr: a, Value: v})
	return nil
}

// closeRecord ends a ctx line written with full entries and decoded into
// *dst. It reports false for a record written empty, which is an error:
// the check must see the record as written, not as projected (a record
// whose every entry is projected away is still a record — AGGREGATE count
// counts it — so it is returned empty rather than rejected).
func (r *Reader) closeRecord(full int, dst *snapshot.FlatRecord) bool {
	if full == 0 {
		return false
	}
	if n := full - len(*dst); n > 0 {
		telProjDropped.Add(uint64(n))
	}
	return true
}

// The canonical layout. Writer.ensureNode and Writer.WriteRecord
// (calformat.go) always emit
//
//	__rec=node,id=D,attr=D,data=V,parent=[D]
//	__rec=ctx[,ref=D(:D)*][,attr=D(:D)*,data=V(:V)*]
//
// with D a plain decimal id and V an escaped value, and canonNodeLine and
// canonCtxLine decode exactly those bytes in one left-to-right pass: no
// span table, no key search, no list split. They accept a line only if it
// is in that layout byte for byte — D is 1 to 18 digits, V holds no
// escape (a value the Writer had to escape goes the generic way) — and
// decodes without error. Anything else they decline, leaving the Reader
// as it was, and the generic scanner decodes the line; it alone builds
// errors, so messages and the duplicate-key rule cannot differ. A change
// to the Writer's field order must change these two functions with it
// (TestWriterLinesDecodePositionally fails otherwise).

// valStop marks the bytes that end a canonical value or rule it out: the
// field and list separators, and the escape and '=' that only an escaped
// value carries.
var valStop = [256]bool{',': true, ':': true, '\\': true, '=': true}

// canonID parses the 1 to 18 digit id at line[p:], returning it and the
// index after it; ok is false for anything else there (a sign, no digit,
// an id long enough to overflow).
func canonID(line []byte, p int) (id int64, end int, ok bool) {
	for end = p; end < len(line); end++ {
		c := line[end] - '0'
		if c > 9 {
			break
		}
		id = id*10 + int64(c)
	}
	return id, end, end > p && end-p <= 18
}

// hasAt reports whether lit occurs in line at index p.
func hasAt(line []byte, p int, lit string) bool {
	return len(line)-p >= len(lit) && string(line[p:p+len(lit)]) == lit
}

// canonNodeLine decodes a node line in the canonical layout; false means
// the line is not one (or would be an error) and nothing was defined.
func (r *Reader) canonNodeLine(line []byte) bool {
	if !hasAt(line, 0, "__rec=node,id=") {
		return false
	}
	id, p, ok := canonID(line, len("__rec=node,id="))
	if !ok || !hasAt(line, p, ",attr=") {
		return false
	}
	aid, p, ok := canonID(line, p+len(",attr="))
	if !ok || !hasAt(line, p, ",data=") {
		return false
	}
	p += len(",data=")
	end := p
	for end < len(line) && !valStop[line[end]] {
		end++
	}
	if !hasAt(line, end, ",parent=") {
		return false
	}
	parent := int32(-1)
	if q := end + len(",parent="); q < len(line) {
		pid, q, ok := canonID(line, q)
		if !ok || q != len(line) {
			return false
		}
		if parent, ok = r.nodeAt(pid); !ok {
			return false
		}
	}
	a, ok := r.attrMap[aid]
	if !ok {
		return false
	}
	v, err := r.parseValue(line[p:end], a.Type())
	if err != nil {
		return false
	}
	r.defineNode(id, aid, parent, a, v)
	return true
}

// canonCtxLine decodes a ctx line in the canonical layout into *dst; false
// means the line is not one (or would be an error) and *dst is empty.
func (r *Reader) canonCtxLine(line []byte, dst *snapshot.FlatRecord) bool {
	if !hasAt(line, 0, "__rec=ctx") || !r.canonCtxFields(line, dst) {
		*dst = (*dst)[:0]
		return false
	}
	return true
}

// canonCtxFields is canonCtxLine past the record kind; when it declines
// the line it may leave entries in *dst.
func (r *Reader) canonCtxFields(line []byte, dst *snapshot.FlatRecord) bool {
	p, full := len("__rec=ctx"), 0
	if hasAt(line, p, ",ref=") {
		p += len(",ref=")
		for {
			nid, end, ok := canonID(line, p)
			if !ok {
				return false
			}
			at, ok := r.nodeAt(nid)
			if !ok {
				return false
			}
			full += r.expandPath(at, dst)
			if p = end; p == len(line) || line[p] != ':' {
				break
			}
			p++
		}
	}
	if p == len(line) {
		return r.closeRecord(full, dst)
	}
	// The id list ends at ",data=" and the value list at the end of the
	// line; one cursor walks each, an id and its value at a time.
	if !hasAt(line, p, ",attr=") {
		return false
	}
	ip := p + len(",attr=")
	idsEnd := ip + bytes.IndexByte(line[ip:], ',')
	if idsEnd < ip || !hasAt(line, idsEnd, ",data=") {
		return false
	}
	vp := idsEnd + len(",data=")
	for {
		aid, iend, ok := canonID(line, ip)
		if !ok {
			return false
		}
		a, ok := r.attrMap[aid]
		if !ok {
			return false
		}
		vend := vp
		for vend < len(line) && !valStop[line[vend]] {
			vend++
		}
		if r.immediate(dst, aid, a, line[vp:vend]) != nil {
			return false
		}
		full++
		moreIDs, moreVals := line[iend] == ':', vend < len(line) && line[vend] == ':'
		switch {
		case moreIDs && moreVals:
			ip, vp = iend+1, vend+1
		case !moreIDs && !moreVals && iend == idsEnd && vend == len(line):
			return r.closeRecord(full, dst)
		default:
			return false // lists of different lengths, or a stray byte
		}
	}
}

// scanFields splits line into key=value spans in r.fields. Escape
// sequences are left in place (spans index the raw bytes); empty segments
// are skipped; a non-empty segment with no '=' is an error, exactly like
// splitFields in legacy_test.go.
func (r *Reader) scanFields(line []byte) error {
	r.fields = r.fields[:0]
	f := fieldSpan{}
	inKey := true
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c == '\\' && i+1 < len(line):
			if inKey {
				f.keyEsc = true
			} else {
				f.valEsc = true
			}
			i++
		case c == ',':
			if inKey {
				if f.keyLo != int32(i) {
					return fmt.Errorf("calformat: field %q has no '='", line[f.keyLo:i])
				}
			} else {
				f.valHi = int32(i)
				r.fields = append(r.fields, f)
			}
			f = fieldSpan{keyLo: int32(i + 1)}
			inKey = true
		case c == '=' && inKey:
			f.keyHi = int32(i)
			f.valLo = int32(i + 1)
			inKey = false
		}
	}
	if inKey {
		if f.keyLo != int32(len(line)) {
			return fmt.Errorf("calformat: field %q has no '='", line[f.keyLo:])
		}
	} else {
		f.valHi = int32(len(line))
		r.fields = append(r.fields, f)
	}
	return nil
}

// findField returns the raw (still escaped) value bytes of the named
// field, scanning last to first so duplicate keys resolve like a map
// built in line order (last one wins). Keys are compared unescaped.
func (r *Reader) findField(line []byte, name string) (val []byte, esc, ok bool) {
	for i := len(r.fields) - 1; i >= 0; i-- {
		f := r.fields[i]
		key := line[f.keyLo:f.keyHi]
		if f.keyEsc {
			r.keyScratch = unescapeAppend(r.keyScratch[:0], key)
			key = r.keyScratch
		}
		if string(key) == name { // alloc-free comparison
			return line[f.valLo:f.valHi], f.valEsc, true
		}
	}
	return nil, false, false
}

// splitListSpans appends the spans of raw's ':'-separated elements to
// dst. Offsets are relative to raw. Semantics match splitList in
// legacy_test.go: empty input has no elements, a trailing separator
// yields a trailing empty element, and escaped separators stay within an
// element.
func splitListSpans(dst []listElem, raw []byte) []listElem {
	if len(raw) == 0 {
		return dst
	}
	e := listElem{}
	for i := 0; i < len(raw); i++ {
		switch {
		case raw[i] == '\\' && i+1 < len(raw):
			e.esc = true
			i++
		case raw[i] == ':':
			e.hi = int32(i)
			dst = append(dst, e)
			e = listElem{lo: int32(i + 1)}
		}
	}
	e.hi = int32(len(raw))
	return append(dst, e)
}

// nextLine scans the next line and returns it with trailing carriage
// returns trimmed (it may be empty); ok is false at the end of the input
// or on a read error (r.sc.Err tells which).
func (r *Reader) nextLine() (line []byte, ok bool) {
	if !r.sc.Scan() {
		return nil, false
	}
	r.line++
	r.offset += int64(r.consumed)
	telBytesRead.Add(uint64(r.consumed))
	line = r.sc.Bytes()
	for len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, true
}

// decodeLine decodes one line: metadata goes into the Reader's tables, a
// ctx record into *dst, and isRec reports which it was. A nil dst skips
// records undecoded (ScanMetaUntil). A line in the Writer's canonical
// layout is decoded positionally (canonNodeLine, canonCtxLine); any other
// line, and any line that is going to be an error, takes the generic
// field scanner — chosen from the line's bytes alone.
func (r *Reader) decodeLine(line []byte, dst *snapshot.FlatRecord) (isRec bool, err error) {
	if len(line) == 0 {
		return false, nil
	}
	if r.canonNodeLine(line) {
		r.metaSeen++
		return false, nil
	}
	if dst != nil && r.canonCtxLine(line, dst) {
		return true, nil
	}
	telLinesGeneric.Inc()
	if err := r.scanFields(line); err != nil {
		return false, r.errf("%v", err)
	}
	// The record kind is matched on the raw value, like the legacy
	// fm["__rec"] lookup: an escaped kind never matches and falls
	// through to the unknown-kind skip.
	kind, _, _ := r.findField(line, "__rec")
	switch string(kind) {
	case "attr":
		if err := r.readAttrLine(line); err != nil {
			return false, err
		}
		r.metaSeen++
	case "node":
		if err := r.readNodeLine(line); err != nil {
			return false, err
		}
		r.metaSeen++
	case "globals":
		e, err := r.readEntryLine(line)
		if err != nil {
			return false, err
		}
		r.globals = append(r.globals, e)
		r.metaSeen++
	case "ctx":
		if dst == nil {
			return true, nil
		}
		return true, r.readCtxLine(line, dst)
	case "":
		return false, r.errf("record without __rec field")
	default:
		// unknown record kinds are skipped for forward compatibility
	}
	return false, nil
}

// NextInto decodes the next snapshot record in the stream into *dst,
// reusing dst's backing storage. The record is valid until the next
// NextInto/Next call on this Reader; callers that retain it longer must
// Clone it (see snapshot.FlatRecord.Clone). It returns io.EOF after the
// last record.
func (r *Reader) NextInto(dst *snapshot.FlatRecord) error {
	*dst = (*dst)[:0]
	for {
		if r.limit > 0 && r.offset >= r.limit {
			return io.EOF
		}
		line, ok := r.nextLine()
		if !ok {
			break
		}
		isRec, err := r.decodeLine(line, dst)
		if err != nil {
			return err
		}
		if isRec {
			telRecsRead.Inc()
			return nil
		}
	}
	if err := r.sc.Err(); err != nil {
		return err
	}
	return io.EOF
}

// Next returns the next snapshot record in the stream, fully expanded
// into freshly allocated storage. It returns io.EOF after the last
// record. Hot paths should prefer NextInto.
func (r *Reader) Next() (snapshot.FlatRecord, error) {
	var rec snapshot.FlatRecord
	if err := r.NextInto(&rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// ReadAll reads all remaining records.
func (r *Reader) ReadAll() ([]snapshot.FlatRecord, error) {
	var out []snapshot.FlatRecord
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

func (r *Reader) readAttrLine(line []byte) error {
	idRaw, _, _ := r.findField(line, "id")
	id, err := strconv.ParseInt(bstr(idRaw), 10, 64)
	if err != nil {
		return r.errf("attr record: bad id %q", idRaw)
	}
	typRaw, typEsc, _ := r.findField(line, "type")
	typ, ok := attr.ParseType(bstr(r.unescaped(typRaw, typEsc)))
	if !ok {
		return r.errf("attr record: unknown type %q", typRaw)
	}
	propRaw, propEsc, _ := r.findField(line, "prop")
	props, err := attr.ParseProperties(bstr(r.unescaped(propRaw, propEsc)))
	if err != nil {
		return r.errf("attr record: %v", err)
	}
	nameRaw, nameEsc, _ := r.findField(line, "name")
	name := r.unescaped(nameRaw, nameEsc)
	if len(name) == 0 {
		return r.errf("attr record: missing name")
	}
	a, err := r.reg.Create(r.intern(name), typ, props)
	if err != nil {
		return r.errf("attr record: %v", err)
	}
	r.attrMap[id] = a
	if r.drop != nil {
		if r.keep[a.Name()] {
			delete(r.drop, id)
		} else {
			r.drop[id] = true
		}
	}
	return nil
}

func (r *Reader) readNodeLine(line []byte) error {
	idRaw, _, _ := r.findField(line, "id")
	id, err := strconv.ParseInt(bstr(idRaw), 10, 64)
	if err != nil {
		return r.errf("node record: bad id %q", idRaw)
	}
	aidRaw, _, _ := r.findField(line, "attr")
	aid, err := strconv.ParseInt(bstr(aidRaw), 10, 64)
	if err != nil {
		return r.errf("node record: bad attr %q", aidRaw)
	}
	a, ok := r.attrMap[aid]
	if !ok {
		return r.errf("node record: undefined attribute %d", aid)
	}
	parent := int32(-1)
	if psRaw, _, _ := r.findField(line, "parent"); len(psRaw) > 0 {
		pid, err := strconv.ParseInt(bstr(psRaw), 10, 64)
		if err != nil {
			return r.errf("node record: bad parent %q", psRaw)
		}
		if parent, ok = r.nodeAt(pid); !ok {
			return r.errf("node record: undefined parent node %d", pid)
		}
	}
	dataRaw, dataEsc, _ := r.findField(line, "data")
	v, err := r.parseValue(r.unescaped(dataRaw, dataEsc), a.Type())
	if err != nil {
		return r.errf("node record: %v", err)
	}
	r.defineNode(id, aid, parent, a, v)
	return nil
}

func (r *Reader) readEntryLine(line []byte) (attr.Entry, error) {
	aidRaw, _, _ := r.findField(line, "attr")
	aid, err := strconv.ParseInt(bstr(aidRaw), 10, 64)
	if err != nil {
		return attr.Entry{}, r.errf("bad attr id %q", aidRaw)
	}
	a, ok := r.attrMap[aid]
	if !ok {
		return attr.Entry{}, r.errf("undefined attribute %d", aid)
	}
	dataRaw, dataEsc, _ := r.findField(line, "data")
	v, err := r.parseValue(r.unescaped(dataRaw, dataEsc), a.Type())
	if err != nil {
		return attr.Entry{}, r.errf("%v", err)
	}
	return attr.Entry{Attr: a, Value: v}, nil
}

func (r *Reader) readCtxLine(line []byte, dst *snapshot.FlatRecord) error {
	full := 0 // entries as written, before projection
	refRaw, _, _ := r.findField(line, "ref")
	r.refElems = splitListSpans(r.refElems[:0], refRaw)
	for _, e := range r.refElems {
		ref := r.unescaped(refRaw[e.lo:e.hi], e.esc)
		nid, err := strconv.ParseInt(bstr(ref), 10, 64)
		if err != nil {
			return r.errf("ctx record: bad node ref %q", ref)
		}
		at, ok := r.nodeAt(nid)
		if !ok {
			return r.errf("ctx record: undefined node %d", nid)
		}
		full += r.expandPath(at, dst)
	}
	attrRaw, _, hasAttr := r.findField(line, "attr")
	dataRaw, _, hasData := r.findField(line, "data")
	r.attrElems = splitListSpans(r.attrElems[:0], attrRaw)
	r.dataElems = splitListSpans(r.dataElems[:0], dataRaw)
	nData := len(r.dataElems)
	// a present-but-empty data field is one empty value (the list split
	// cannot distinguish "" from an absent field)
	dataEmpty := hasData && nData == 0
	if dataEmpty {
		nData = 1
	}
	if hasAttr && len(r.attrElems) == 0 {
		return r.errf("ctx record: empty attr id list")
	}
	if len(r.attrElems) != nData {
		return r.errf("ctx record: %d attr ids but %d values", len(r.attrElems), nData)
	}
	for i := range r.attrElems {
		ae := r.attrElems[i]
		ab := r.unescaped(attrRaw[ae.lo:ae.hi], ae.esc)
		aid, err := strconv.ParseInt(bstr(ab), 10, 64)
		if err != nil {
			return r.errf("ctx record: bad attr id %q", ab)
		}
		a, ok := r.attrMap[aid]
		if !ok {
			return r.errf("ctx record: undefined attribute %d", aid)
		}
		var db []byte
		if !dataEmpty {
			de := r.dataElems[i]
			db = r.unescaped(dataRaw[de.lo:de.hi], de.esc)
		}
		if err := r.immediate(dst, aid, a, db); err != nil {
			return r.errf("ctx record: %v", err)
		}
		full++
	}
	if !r.closeRecord(full, dst) {
		return r.errf("ctx record: empty record")
	}
	return nil
}
