package calformat

// Block-structured sidecar indexes for .cali streams.
//
// A .cali file is divided into blocks of a fixed target record count. For
// each block the index records the exact byte span, the record count, the
// number of metadata lines (attr/node/globals definitions) inside the
// span, and per-attribute zone maps: numeric min/max bounds and small
// distinct-string sets with an overflow marker. Query planning
// (internal/query/scan.go) uses the zone maps to skip whole files and
// blocks that cannot satisfy a compiled WHERE condition, and the byte
// spans to seek over the skipped blocks.
//
// The index lives in a sidecar file next to the data (<file>.cali.idx) so
// existing .cali files stay valid and writable by tools that know nothing
// about indexes. Staleness is detected at load time by content length
// plus a quick content hash (CRC-32C over the length and the first and
// last 64 KiB, see quickHashFile); a full-content CRC-32C is also stored
// and checked by `cali-index -verify`. A stale, corrupt, or
// version-mismatched index is never used — readers fall back to a full
// scan.
//
// Zone maps track every entry occurrence of an attribute in a block (a
// record can carry the same attribute several times along its context
// path). That is a superset of what WHERE evaluation sees (the last
// occurrence per record), which keeps pruning conservative: if no
// occurrence in a block can satisfy a condition, no record's last
// occurrence can either. Numeric bounds are tracked as float64, exactly
// the domain the engine compares in, and a NaN occurrence widens the
// bounds to (-Inf, +Inf) so NaN's compare-equal-to-everything behavior
// (attr.Compare returns 0) can never justify a skip.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"caligo/internal/attr"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
)

var (
	telIndexBuilt  = telemetry.NewCounter("caligo.index.built")
	telProjDropped = telemetry.NewCounter("caligo.index.proj.dropped")
)

// Index format constants.
const (
	// IndexVersion is bumped on any incompatible format change; readers
	// reject other versions and fall back to a full scan. Version 2
	// hashes with CRC-32C where version 1 used FNV-1a.
	IndexVersion = 2

	indexMagic = "CALIDX1\n"

	// DefaultBlockRecords is the default block granularity. Small enough
	// that selective queries skip most of a large file, large enough that
	// per-block overhead (zones, scan restarts) stays negligible.
	DefaultBlockRecords = 1024

	// DefaultMaxDistinct bounds the distinct-string set per zone; one
	// more distinct value marks the zone overflowed (no string pruning).
	DefaultMaxDistinct = 16

	// quickHashWindow is how much of each end of the file the staleness
	// hash covers (plus the exact length). O(1) in file size, so index
	// loading stays cheap even for huge files.
	quickHashWindow = 64 * 1024
)

// Sentinel errors distinguishing why an index was rejected. A missing
// sidecar is reported as fs.ErrNotExist and is not a fallback (nothing
// was promised); these three mean an index existed but cannot be used.
var (
	ErrIndexStale   = errors.New("calformat: index is stale (data file changed)")
	ErrIndexCorrupt = errors.New("calformat: index file corrupt")
	ErrIndexVersion = errors.New("calformat: unsupported index version")
)

// IndexPath returns the sidecar index path for a .cali file.
func IndexPath(caliPath string) string { return caliPath + ".idx" }

// IndexOptions configure index construction.
type IndexOptions struct {
	BlockRecords int // records per block (<= 0: DefaultBlockRecords)
	MaxDistinct  int // distinct strings per zone (<= 0: DefaultMaxDistinct)
}

func (o IndexOptions) blockRecords() int {
	if o.BlockRecords <= 0 {
		return DefaultBlockRecords
	}
	return o.BlockRecords
}

func (o IndexOptions) maxDistinct() int {
	if o.MaxDistinct <= 0 {
		return DefaultMaxDistinct
	}
	return o.MaxDistinct
}

// Index describes one .cali file: identity (size + hashes), file totals
// (serving cali-stat without a decode), the attribute table, and the
// block list.
type Index struct {
	Version     int
	FileSize    int64
	QuickHash   uint64 // CRC-32C over length + head/tail windows (quickHashFile)
	FullHash    uint64 // CRC-32C over the whole content (cali-index -verify)
	BlockTarget int    // records-per-block the index was built with

	// File totals, as a full decode would count them.
	Records   uint64
	Entries   uint64
	TreeNodes uint64
	Globals   uint64

	Attrs  []IndexAttr
	Blocks []Block
}

// IndexAttr is one row of the index's attribute table. Zone maps refer to
// attributes by position in this table.
type IndexAttr struct {
	Name    string
	Type    attr.Type
	Props   attr.Properties
	Entries uint64 // total entry occurrences in the file
}

// Block describes one record block: its exact byte span, what it holds,
// and the zone maps of the attributes occurring in it. MetaLines is the
// number of attr/node/globals lines inside the span — when zero, a pruned
// block can be skipped with a seek; otherwise later blocks may depend on
// its definitions and a metadata-only scan is required.
type Block struct {
	Offset    int64
	Length    int64
	Records   uint64
	MetaLines int
	Zones     []ZoneMap // sorted by Attr
}

// ZoneMap summarizes one attribute's entry values within a block.
type ZoneMap struct {
	Attr     int    // index into Index.Attrs
	Count    uint64 // entry occurrences in the block
	HasNum   bool   // Min/Max are valid (numeric-typed attribute)
	Min, Max float64
	Strs     []string // distinct values (string-typed attribute), sorted
	Overflow bool     // more than MaxDistinct distinct strings
}

// AttrIndex returns the attribute-table position of name, or -1 if the
// attribute does not occur in the file.
func (idx *Index) AttrIndex(name string) int {
	for i := range idx.Attrs {
		if idx.Attrs[i].Name == name {
			return i
		}
	}
	return -1
}

// Zone returns the block's zone map for an attribute-table position, or
// nil if the attribute does not occur in the block.
func (b *Block) Zone(attrIdx int) *ZoneMap {
	n := len(b.Zones)
	i := sort.Search(n, func(i int) bool { return b.Zones[i].Attr >= attrIdx })
	if i < n && b.Zones[i].Attr == attrIdx {
		return &b.Zones[i]
	}
	return nil
}

// ---------------------------------------------------------------------------
// Zone accumulation (shared by the standalone indexer and IndexingWriter)

type zoneAcc struct {
	count    uint64
	hasNum   bool
	sawNaN   bool
	min, max float64
	strs     map[string]struct{}
	overflow bool
}

// indexAcc accumulates an Index from a stream of (record, end offset,
// metadata-line count) observations, in file order.
type indexAcc struct {
	opt IndexOptions

	attrs    []IndexAttr
	attrPos  map[attr.ID]int
	attrOf   []attr.Attribute // registry handle per table position
	blocks   []Block
	zones    map[int]*zoneAcc // keyed by attr table position
	zoneFree []*zoneAcc       // recycled accumulators

	blockStart   int64
	blockMetaAt  int
	blockRecords uint64
	blockEntries uint64

	records uint64
	entries uint64
}

func newIndexAcc(opt IndexOptions) *indexAcc {
	return &indexAcc{
		opt:     opt,
		attrPos: map[attr.ID]int{},
		zones:   map[int]*zoneAcc{},
	}
}

func (acc *indexAcc) attrIdx(a attr.Attribute) int {
	if i, ok := acc.attrPos[a.ID()]; ok {
		return i
	}
	i := len(acc.attrs)
	acc.attrPos[a.ID()] = i
	acc.attrs = append(acc.attrs, IndexAttr{Name: a.Name(), Type: a.Type(), Props: a.Properties()})
	acc.attrOf = append(acc.attrOf, a)
	return i
}

func (acc *indexAcc) observe(e attr.Entry) {
	i := acc.attrIdx(e.Attr)
	acc.attrs[i].Entries++
	z := acc.zones[i]
	if z == nil {
		if n := len(acc.zoneFree); n > 0 {
			z = acc.zoneFree[n-1]
			acc.zoneFree = acc.zoneFree[:n-1]
			*z = zoneAcc{strs: z.strs}
			clear(z.strs)
		} else {
			z = &zoneAcc{strs: map[string]struct{}{}}
		}
		acc.zones[i] = z
	}
	z.count++
	switch e.Attr.Type() {
	case attr.Int, attr.Uint, attr.Float, attr.Bool:
		f := e.Value.AsFloat()
		if math.IsNaN(f) {
			z.sawNaN = true
		} else if !z.hasNum {
			z.hasNum = true
			z.min, z.max = f, f
		} else {
			if f < z.min {
				z.min = f
			}
			if f > z.max {
				z.max = f
			}
		}
	case attr.String:
		if !z.overflow {
			if _, ok := z.strs[e.Value.String()]; !ok {
				if len(z.strs) >= acc.opt.maxDistinct() {
					z.overflow = true
					clear(z.strs)
				} else {
					z.strs[e.Value.String()] = struct{}{}
				}
			}
		}
	}
}

// record accounts one decoded record; endOff and metaTotal are the stream
// offset and cumulative metadata-line count after its line.
func (acc *indexAcc) record(rec snapshot.FlatRecord, endOff int64, metaTotal int) {
	for _, e := range rec {
		acc.observe(e)
	}
	acc.blockRecords++
	acc.blockEntries += uint64(len(rec))
	if acc.blockRecords >= uint64(acc.opt.blockRecords()) {
		acc.closeBlock(endOff, metaTotal)
	}
}

func (acc *indexAcc) closeBlock(endOff int64, metaTotal int) {
	b := Block{
		Offset:    acc.blockStart,
		Length:    endOff - acc.blockStart,
		Records:   acc.blockRecords,
		MetaLines: metaTotal - acc.blockMetaAt,
	}
	if len(acc.zones) > 0 {
		b.Zones = make([]ZoneMap, 0, len(acc.zones))
		for i, z := range acc.zones {
			zm := ZoneMap{Attr: i, Count: z.count}
			if z.hasNum || z.sawNaN {
				zm.HasNum = true
				zm.Min, zm.Max = z.min, z.max
				if z.sawNaN {
					// NaN compares equal to anything in the engine:
					// widen so no range test can ever exclude it
					zm.Min = math.Inf(-1)
					zm.Max = math.Inf(1)
				}
			}
			if z.overflow {
				zm.Overflow = true
			} else if len(z.strs) > 0 {
				zm.Strs = make([]string, 0, len(z.strs))
				for s := range z.strs {
					zm.Strs = append(zm.Strs, s)
				}
				sort.Strings(zm.Strs)
			}
			b.Zones = append(b.Zones, zm)
			acc.zoneFree = append(acc.zoneFree, z)
		}
		sort.Slice(b.Zones, func(i, j int) bool { return b.Zones[i].Attr < b.Zones[j].Attr })
		clear(acc.zones)
	}
	acc.blocks = append(acc.blocks, b)
	acc.records += acc.blockRecords
	acc.entries += acc.blockEntries
	acc.blockStart = endOff
	acc.blockMetaAt = metaTotal
	acc.blockRecords = 0
	acc.blockEntries = 0
}

// finish closes the trailing block (if it holds records or trailing
// metadata) and assembles the Index. Identity fields (size, hashes) are
// filled in by the caller.
func (acc *indexAcc) finish(endOff int64, metaTotal int, treeNodes, globals int) *Index {
	if acc.blockRecords > 0 || endOff > acc.blockStart {
		acc.closeBlock(endOff, metaTotal)
	}
	return &Index{
		Version:     IndexVersion,
		FileSize:    endOff,
		BlockTarget: acc.opt.blockRecords(),
		Records:     acc.records,
		Entries:     acc.entries,
		TreeNodes:   uint64(treeNodes),
		Globals:     uint64(globals),
		Attrs:       acc.attrs,
		Blocks:      acc.blocks,
	}
}

// refreshAttrs re-reads type/properties from the registry handles:
// attribute properties merge across redefinitions, so the end-of-stream
// registry state is authoritative (it is what any full read observes).
func (acc *indexAcc) refreshAttrs() {
	for i, a := range acc.attrOf {
		acc.attrs[i].Type = a.Type()
		acc.attrs[i].Props = a.Properties()
	}
}

// ---------------------------------------------------------------------------
// Standalone indexer

// BuildFileIndex fully decodes a .cali file and builds its index. The
// returned index carries the file's size and hashes; WriteIndexFile
// persists it to the sidecar path.
func BuildFileIndex(path string, opt IndexOptions) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	reg := attr.NewRegistry()
	tree := contexttree.New()
	rd := NewReader(f, reg, tree)
	acc := newIndexAcc(opt)
	var rec snapshot.FlatRecord
	for {
		err := rd.NextInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("calformat: indexing %s: %w", path, err)
		}
		acc.record(rec, rd.Offset(), rd.MetaLines())
	}
	acc.refreshAttrs()
	idx := acc.finish(rd.Offset(), rd.MetaLines(), tree.Len(), len(rd.Globals()))

	quick, full, size, err := hashReader(f)
	if err != nil {
		return nil, err
	}
	if size != idx.FileSize {
		return nil, fmt.Errorf("calformat: indexing %s: file changed during indexing", path)
	}
	idx.QuickHash, idx.FullHash = quick, full
	telIndexBuilt.Inc()
	return idx, nil
}

// ---------------------------------------------------------------------------
// Block-aware writer mode

// IndexingWriter is a Writer that builds the block index as it writes.
// Wrap the destination with NewIndexingWriter, write records as usual,
// then call Finish to flush and obtain the Index.
type IndexingWriter struct {
	*Writer
	hw      *hashingWriter
	acc     *indexAcc
	globals int

	// expanded-path cache: zone accumulation needs each record's full
	// entry expansion
	pathCache map[contexttree.NodeID][]attr.Entry
}

// NewIndexingWriter returns a block-aware writer targeting w.
func NewIndexingWriter(w io.Writer, reg *attr.Registry, tree *contexttree.Tree, opt IndexOptions) *IndexingWriter {
	hw := newHashingWriter(w)
	return &IndexingWriter{
		Writer:    NewWriter(hw, reg, tree),
		hw:        hw,
		acc:       newIndexAcc(opt),
		pathCache: map[contexttree.NodeID][]attr.Entry{},
	}
}

// offset is the stream position the next byte will be written at.
func (iw *IndexingWriter) offset() int64 {
	return iw.hw.n + int64(iw.Writer.w.Buffered())
}

func (iw *IndexingWriter) pathOf(n contexttree.NodeID) ([]attr.Entry, error) {
	if p, ok := iw.pathCache[n]; ok {
		return p, nil
	}
	p, err := iw.Writer.tree.Path(n, iw.Writer.reg)
	if err != nil {
		return nil, err
	}
	iw.pathCache[n] = p
	return p, nil
}

// WriteRecord writes one record and accounts it in the index.
func (iw *IndexingWriter) WriteRecord(rec snapshot.Record) error {
	if rec.Empty() {
		return nil
	}
	if err := iw.Writer.WriteRecord(rec); err != nil {
		return err
	}
	// observe the record exactly as a reader would expand it
	n := 0
	for _, node := range rec.Nodes {
		path, err := iw.pathOf(node)
		if err != nil {
			return err
		}
		for _, e := range path {
			iw.acc.observe(e)
		}
		n += len(path)
	}
	for _, e := range rec.Imm {
		// an immediate entry is decoded with the attribute's declared
		// type; observe the re-parsed value so zones match a reader's view
		v := e.Value
		if v.Kind() != e.Attr.Type() {
			if pv, err := attr.ParseAs(v.String(), e.Attr.Type()); err == nil {
				v = pv
			}
		}
		iw.acc.observe(attr.Entry{Attr: e.Attr, Value: v})
	}
	n += len(rec.Imm)
	iw.acc.blockRecords++
	iw.acc.blockEntries += uint64(n)
	if iw.acc.blockRecords >= uint64(iw.acc.opt.blockRecords()) {
		iw.acc.closeBlock(iw.offset(), iw.Writer.metaLines)
	}
	return nil
}

// WriteFlat writes a fully expanded record as immediate entries.
func (iw *IndexingWriter) WriteFlat(rec snapshot.FlatRecord) error {
	return iw.WriteRecord(snapshot.Record{Imm: rec})
}

// WriteGlobals writes per-run metadata entries.
func (iw *IndexingWriter) WriteGlobals(entries []attr.Entry) error {
	if err := iw.Writer.WriteGlobals(entries); err != nil {
		return err
	}
	iw.globals += len(entries)
	return nil
}

// Finish flushes the stream and returns the completed index.
func (iw *IndexingWriter) Finish() (*Index, error) {
	if err := iw.Writer.Flush(); err != nil {
		return nil, err
	}
	iw.acc.refreshAttrs()
	idx := iw.acc.finish(iw.hw.n, iw.Writer.metaLines, len(iw.Writer.wroteNode), iw.globals)
	idx.QuickHash = iw.hw.quickSum()
	idx.FullHash = uint64(iw.hw.full)
	telIndexBuilt.Inc()
	return idx, nil
}

// hashingWriter tees writes into the full-content hash and keeps the
// head/tail windows needed to compute the quick hash at Finish, matching
// quickHashFile's file-based computation byte for byte.
type hashingWriter struct {
	w    io.Writer
	n    int64
	full uint32 // CRC-32C of everything written
	head []byte // first quickHashWindow bytes
	tail []byte // ring of the last quickHashWindow bytes: stream byte i at i % quickHashWindow
}

func newHashingWriter(w io.Writer) *hashingWriter {
	return &hashingWriter{w: w, tail: make([]byte, quickHashWindow)}
}

func (hw *hashingWriter) Write(p []byte) (int, error) {
	n, err := hw.w.Write(p)
	b := p[:n]
	hw.full = crc(hw.full, b)
	if len(hw.head) < quickHashWindow {
		hw.head = append(hw.head, b[:min(len(b), quickHashWindow-len(hw.head))]...)
	}
	start := hw.n
	hw.n += int64(n)
	if len(b) > quickHashWindow {
		start += int64(len(b) - quickHashWindow)
		b = b[len(b)-quickHashWindow:]
	}
	k := copy(hw.tail[start%quickHashWindow:], b)
	copy(hw.tail, b[k:])
	return n, err
}

// quickSum computes the quick hash from the tracked windows.
func (hw *hashingWriter) quickSum() uint64 {
	seed := sizeSeed(make([]byte, 8), hw.n)
	var lo uint32
	if hw.n > quickHashWindow {
		// the last window, in stream order
		pos := hw.n % quickHashWindow
		lo = crc(crc(seed, hw.tail[pos:]), hw.tail[:pos])
	}
	return uint64(crc(seed, hw.head))<<32 | uint64(lo)
}

// castagnoli is the CRC-32C table; hash/crc32 computes it with the
// SSE4.2 (amd64) or CRC32 (arm64) instructions.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc extends a CRC-32C over p: the one hash function of the index (its
// quick and full content hashes and its self-checksum).
func crc(c uint32, p []byte) uint32 { return crc32.Update(c, castagnoli, p) }

// Checksum is the CRC-32C of p: the trailing self-checksum of a sidecar
// index, and of a query-state cache entry.
func Checksum(p []byte) uint32 { return crc(0, p) }

// sizeSeed starts both halves of a quick hash: the CRC-32C of the
// content's exact length, encoded into scratch's first 8 bytes (a local
// array would escape into crc32.Update and cost an allocation a check).
func sizeSeed(scratch []byte, size int64) uint32 {
	binary.LittleEndian.PutUint64(scratch, uint64(size))
	return crc(0, scratch[:8])
}

// windows is the free list of the buffers quickHashFile and hashReader
// read into, one window plus the byte CheckIdentity probes past the
// content. It retains as many buffers as the most checks that ever ran at
// once. It is not a sync.Pool: a collection empties a pool, and every
// check after it would allocate its window again.
var windows struct {
	mu   sync.Mutex
	free [][]byte
}

func getWindow() []byte {
	windows.mu.Lock()
	if n := len(windows.free); n > 0 {
		b := windows.free[n-1]
		windows.free = windows.free[:n-1]
		windows.mu.Unlock()
		return b
	}
	windows.mu.Unlock()
	return make([]byte, quickHashWindow+1)
}

func putWindow(b []byte) {
	windows.mu.Lock()
	windows.free = append(windows.free, b)
	windows.mu.Unlock()
}

// hashReader computes (quickHash, fullHash, size) of an open file.
func hashReader(f *os.File) (quick, full uint64, size int64, err error) {
	size, q, err := QuickHash(f)
	if err != nil {
		return 0, 0, 0, err
	}
	buf := getWindow()
	defer putWindow(buf)
	var c uint32
	var off int64
	for {
		n, err := f.ReadAt(buf, off)
		c = crc(c, buf[:n])
		off += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return q, uint64(c), size, nil
}

// QuickHash returns the identity of the open file as it is now: its size
// and the quick hash over all of it — what a sidecar index (FileSize,
// QuickHash) or a query-state cache entry (Watermark, PrefixHash) records
// about the bytes it describes, and CheckIdentity later tests.
func QuickHash(f *os.File) (size int64, hash uint64, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	hash, _, err = quickHashFile(f, st.Size())
	return st.Size(), hash, err
}

// Identity is CheckIdentity's verdict on a recorded (n, hash).
type Identity int

const (
	Changed Identity = iota // shorter than n, or its first n bytes hash differently
	Same                    // exactly n bytes, hashing as recorded
	Grown                   // longer than n, the first n bytes hashing as recorded
)

// CheckIdentity reports whether a recorded (n, hash) still describes the
// first n bytes of the open file, with one quick hash whose last read
// also says whether a byte follows them. It is the one staleness test of
// the index, to which a grown file is as stale as a changed one, and of
// the cache, which rescans only a grown file's tail. Bytes strictly
// between the two windows are not read: an edit there that keeps the
// length goes unseen (cali-index -verify's full hash sees it).
func CheckIdentity(f *os.File, n int64, hash uint64) (Identity, error) {
	if n < 0 {
		return Changed, nil
	}
	got, fill, err := quickHashFile(f, n)
	switch {
	case err != nil || fill < n || got != hash:
		return Changed, err
	case fill == n:
		return Same, nil
	}
	return Grown, nil
}

// quickHashFile computes the O(1)-read staleness hash of the first size
// bytes of an open file: the CRC-32C of the length and the head window
// (its first min(size, quickHashWindow) bytes) in the high half, and of
// the length and the tail window (its last quickHashWindow bytes) in the
// low half, which is 0 when the head window already covers all size
// bytes. The window holding the last of the size bytes is read one byte
// long, so fill, how far the file reaches capped at size+1, says whether
// it is shorter than size (fill < size) or longer (fill == size+1).
func quickHashFile(f *os.File, size int64) (hash uint64, fill int64, err error) {
	buf := getWindow()
	defer putWindow(buf)
	seed := sizeSeed(buf, size)
	if size <= quickHashWindow {
		k, err := f.ReadAt(buf[:size+1], 0)
		if err != nil && err != io.EOF {
			return 0, 0, err
		}
		return uint64(crc(seed, buf[:min(int64(k), size)])) << 32, int64(k), nil
	}
	k, err := f.ReadAt(buf[:quickHashWindow], 0)
	if err != nil && err != io.EOF {
		return 0, 0, err
	}
	if k < quickHashWindow {
		return 0, int64(k), nil
	}
	hi := crc(seed, buf[:quickHashWindow])
	k, err = f.ReadAt(buf, size-quickHashWindow)
	if err != nil && err != io.EOF {
		return 0, 0, err
	}
	lo := crc(seed, buf[:min(k, quickHashWindow)])
	return uint64(hi)<<32 | uint64(lo), size - quickHashWindow + int64(k), nil
}

// ---------------------------------------------------------------------------
// Binary encoding

// Encode renders the index in its binary sidecar form: magic, uvarint
// fields, and a trailing CRC-32C self-checksum that catches truncation.
func (idx *Index) Encode() []byte {
	b := make([]byte, 0, 256+64*len(idx.Blocks))
	b = append(b, indexMagic...)
	b = binary.AppendUvarint(b, uint64(idx.Version))
	b = binary.AppendUvarint(b, uint64(idx.FileSize))
	b = binary.LittleEndian.AppendUint64(b, idx.QuickHash)
	b = binary.LittleEndian.AppendUint64(b, idx.FullHash)
	b = binary.AppendUvarint(b, uint64(idx.BlockTarget))
	b = binary.AppendUvarint(b, idx.Records)
	b = binary.AppendUvarint(b, idx.Entries)
	b = binary.AppendUvarint(b, idx.TreeNodes)
	b = binary.AppendUvarint(b, idx.Globals)
	b = binary.AppendUvarint(b, uint64(len(idx.Attrs)))
	for _, a := range idx.Attrs {
		b = appendString(b, a.Name)
		b = append(b, byte(a.Type))
		b = binary.AppendUvarint(b, uint64(a.Props))
		b = binary.AppendUvarint(b, a.Entries)
	}
	b = binary.AppendUvarint(b, uint64(len(idx.Blocks)))
	for i := range idx.Blocks {
		blk := &idx.Blocks[i]
		b = binary.AppendUvarint(b, uint64(blk.Offset))
		b = binary.AppendUvarint(b, uint64(blk.Length))
		b = binary.AppendUvarint(b, blk.Records)
		b = binary.AppendUvarint(b, uint64(blk.MetaLines))
		b = binary.AppendUvarint(b, uint64(len(blk.Zones)))
		for _, z := range blk.Zones {
			b = binary.AppendUvarint(b, uint64(z.Attr))
			b = binary.AppendUvarint(b, z.Count)
			var flags byte
			if z.HasNum {
				flags |= 1
			}
			if z.Overflow {
				flags |= 2
			}
			b = append(b, flags)
			if z.HasNum {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(z.Min))
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(z.Max))
			}
			b = binary.AppendUvarint(b, uint64(len(z.Strs)))
			for _, s := range z.Strs {
				b = appendString(b, s)
			}
		}
	}
	return binary.LittleEndian.AppendUint32(b, Checksum(b))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// cursor is a bounds-checked decode cursor; the first error sticks.
type cursor struct {
	b   []byte
	pos int
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s at offset %d", ErrIndexCorrupt, what, c.pos)
	}
}

func (c *cursor) uvarint(what string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		c.fail(what)
		return 0
	}
	c.pos += n
	return v
}

func (c *cursor) fixed64(what string) uint64 {
	if c.err != nil {
		return 0
	}
	if c.pos+8 > len(c.b) {
		c.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.pos:])
	c.pos += 8
	return v
}

func (c *cursor) byteVal(what string) byte {
	if c.err != nil {
		return 0
	}
	if c.pos >= len(c.b) {
		c.fail(what)
		return 0
	}
	v := c.b[c.pos]
	c.pos++
	return v
}

func (c *cursor) str(what string) string {
	n := c.uvarint(what)
	if c.err != nil {
		return ""
	}
	if n > uint64(len(c.b)-c.pos) {
		c.fail(what)
		return ""
	}
	s := string(c.b[c.pos : c.pos+int(n)])
	c.pos += int(n)
	return s
}

// DecodeIndex parses a binary sidecar index, verifying magic, version,
// self-checksum, and structural invariants (contiguous blocks covering
// exactly [0, FileSize), consistent totals, in-range zone references).
func DecodeIndex(b []byte) (*Index, error) {
	if len(b) < len(indexMagic)+4 {
		return nil, fmt.Errorf("%w: short file (%d bytes)", ErrIndexCorrupt, len(b))
	}
	if string(b[:len(indexMagic)]) != indexMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrIndexCorrupt)
	}
	// an older version sealed its bytes with another checksum: it is
	// rejected by its version before the checksum could call it damaged
	if v, n := binary.Uvarint(b[len(indexMagic):]); n > 0 && v < IndexVersion {
		return nil, fmt.Errorf("%w: got version %d, want %d", ErrIndexVersion, v, IndexVersion)
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if Checksum(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (truncated or damaged)", ErrIndexCorrupt)
	}
	c := &cursor{b: body, pos: len(indexMagic)}
	idx := &Index{}
	idx.Version = int(c.uvarint("version"))
	if c.err != nil {
		return nil, c.err
	}
	if idx.Version != IndexVersion {
		return nil, fmt.Errorf("%w: got version %d, want %d", ErrIndexVersion, idx.Version, IndexVersion)
	}
	idx.FileSize = int64(c.uvarint("file size"))
	idx.QuickHash = c.fixed64("quick hash")
	idx.FullHash = c.fixed64("full hash")
	idx.BlockTarget = int(c.uvarint("block target"))
	idx.Records = c.uvarint("records")
	idx.Entries = c.uvarint("entries")
	idx.TreeNodes = c.uvarint("tree nodes")
	idx.Globals = c.uvarint("globals")
	nAttrs := c.uvarint("attr count")
	if c.err == nil && nAttrs > uint64(len(body)) {
		c.fail("attr count")
	}
	for i := uint64(0); i < nAttrs && c.err == nil; i++ {
		a := IndexAttr{Name: c.str("attr name")}
		a.Type = attr.Type(c.byteVal("attr type"))
		a.Props = attr.Properties(c.uvarint("attr props"))
		a.Entries = c.uvarint("attr entries")
		idx.Attrs = append(idx.Attrs, a)
	}
	nBlocks := c.uvarint("block count")
	if c.err == nil && nBlocks > uint64(len(body)) {
		c.fail("block count")
	}
	var records uint64
	off := int64(0)
	for i := uint64(0); i < nBlocks && c.err == nil; i++ {
		blk := Block{
			Offset:    int64(c.uvarint("block offset")),
			Length:    int64(c.uvarint("block length")),
			Records:   c.uvarint("block records"),
			MetaLines: int(c.uvarint("block meta lines")),
		}
		nZones := c.uvarint("zone count")
		if c.err == nil && nZones > uint64(len(body)) {
			c.fail("zone count")
		}
		prevAttr := -1
		for j := uint64(0); j < nZones && c.err == nil; j++ {
			z := ZoneMap{Attr: int(c.uvarint("zone attr"))}
			z.Count = c.uvarint("zone entry count")
			flags := c.byteVal("zone flags")
			z.HasNum = flags&1 != 0
			z.Overflow = flags&2 != 0
			if z.HasNum {
				z.Min = math.Float64frombits(c.fixed64("zone min"))
				z.Max = math.Float64frombits(c.fixed64("zone max"))
			}
			nStrs := c.uvarint("zone string count")
			if c.err == nil && nStrs > uint64(len(body)) {
				c.fail("zone string count")
			}
			for k := uint64(0); k < nStrs && c.err == nil; k++ {
				z.Strs = append(z.Strs, c.str("zone string"))
			}
			if c.err == nil && (z.Attr < 0 || z.Attr >= len(idx.Attrs) || z.Attr <= prevAttr) {
				c.fail("zone attr out of order or out of range")
			}
			prevAttr = z.Attr
			blk.Zones = append(blk.Zones, z)
		}
		if c.err == nil {
			if blk.Offset != off || blk.Length < 0 {
				c.fail("blocks not contiguous")
			}
			off = blk.Offset + blk.Length
			records += blk.Records
		}
		idx.Blocks = append(idx.Blocks, blk)
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrIndexCorrupt, len(body)-c.pos)
	}
	if off != idx.FileSize {
		return nil, fmt.Errorf("%w: blocks cover %d bytes, file size is %d", ErrIndexCorrupt, off, idx.FileSize)
	}
	if records != idx.Records {
		return nil, fmt.Errorf("%w: blocks hold %d records, totals say %d", ErrIndexCorrupt, records, idx.Records)
	}
	return idx, nil
}

// WriteIndexFile persists idx as the sidecar of caliPath.
func WriteIndexFile(caliPath string, idx *Index) error {
	return os.WriteFile(IndexPath(caliPath), idx.Encode(), 0o644)
}

// ReadIndexFile reads and decodes a sidecar index file without checking
// it against the data file (cali-index -inspect wants exactly that).
func ReadIndexFile(idxPath string) (*Index, error) {
	b, err := os.ReadFile(idxPath)
	if err != nil {
		return nil, err
	}
	idx, err := DecodeIndex(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", idxPath, err)
	}
	return idx, nil
}

// LoadIndex loads the sidecar index of a .cali file and verifies it is
// current: the data file's size and quick hash must match what the index
// recorded. A missing sidecar returns fs.ErrNotExist; a present but
// unusable one returns ErrIndexStale/ErrIndexCorrupt/ErrIndexVersion
// (callers count those as fallbacks and do a full scan).
func LoadIndex(caliPath string) (*Index, error) {
	idx, err := ReadIndexFile(IndexPath(caliPath))
	if err != nil {
		return nil, err
	}
	f, err := os.Open(caliPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	id, err := CheckIdentity(f, idx.FileSize, idx.QuickHash)
	if err != nil {
		return nil, err
	}
	if id != Same {
		return nil, fmt.Errorf("%w: not the %d bytes the index was built for", ErrIndexStale, idx.FileSize)
	}
	return idx, nil
}

// VerifyIndex is the thorough form of LoadIndex: it additionally checks
// the stored full-content hash against the data file. Used by
// `cali-index -verify`; query paths use LoadIndex's O(1) quick check.
func VerifyIndex(caliPath string) (*Index, error) {
	idx, err := LoadIndex(caliPath)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(caliPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, full, _, err := hashReader(f)
	if err != nil {
		return nil, err
	}
	if full != idx.FullHash {
		return nil, fmt.Errorf("%w: full content hash mismatch", ErrIndexStale)
	}
	return idx, nil
}
