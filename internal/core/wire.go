package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"caligo/internal/attr"
	"caligo/internal/trace"
)

// Wire format for aggregation database state, used by the tree-based
// cross-process reduction (Section IV-C): leaf processes send their local
// aggregation results to their parent, where the partial results are
// merged. The encoding is registry-independent — keys are expressed as
// (scheme key position, value path) pairs, so sender and receiver only
// need to share the scheme.

// wireVersion guards against format drift between peers.
const wireVersion = 2

// A bucket travels as its key-group count, its key and its accumulators,
// and the key part is the bucket's canonical key encoding byte for byte
// (bucketFor): per group the key position, the value count and the
// self-delimiting variants. EncodeState therefore copies key bytes and
// never decodes them. That is sound because the encoding is canonical and
// injective — one byte string per key path, minimal varints only — and
// MergeEncodedState re-encodes every key it accepts, so no database ever
// holds, or sends, another spelling of a key.

// EncodeState serializes the database's aggregation records. The output
// can be merged into any DB with an equal scheme via MergeEncodedState.
func (db *DB) EncodeState() []byte { return db.AppendState(nil) }

// AppendState appends EncodeState's bytes to dst. When dst lacks the
// room, its one allocation is exactly the size of dst and the state.
func (db *DB) AppendState(dst []byte) []byte {
	sorted := db.sortedBuckets()
	nops, nkeys := len(db.scheme.Ops), len(db.scheme.Key)
	size := 1 + uvarintLen(uint64(nops)) + nops + uvarintLen(uint64(nkeys)) + nkeys +
		uvarintLen(uint64(len(sorted))) + uvarintLen(db.processed) // the exact encoded size
	for _, b := range sorted {
		size += uvarintLen(uint64(b.groups)) + len(b.key)
		for i := range b.accs {
			size += accumLen(&b.accs[i])
		}
	}
	if cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	buf := append(dst, wireVersion)
	buf = binary.AppendUvarint(buf, uint64(nops))
	// per-op resolved target types (Inv: not known here), so a receiver
	// whose registry has not seen the target attributes still emits
	// correctly typed results
	for i := range db.scheme.Ops {
		buf = append(buf, byte(db.targetType(i)))
	}
	// per-key-attribute nested flags: the receiver needs them to expand
	// inclusive_sum hierarchies (flag 2 = metadata known). Flags learned
	// from received state propagate, so intermediate reduction nodes with
	// fresh registries do not lose them.
	buf = binary.AppendUvarint(buf, uint64(nkeys))
	for pos, name := range db.scheme.Key {
		var flag byte
		if a, ok := db.reg.Find(name); ok {
			flag = 2
			if a.IsNested() {
				flag |= 1
			}
		} else if db.wireNested != nil && db.wireNested[pos]&2 != 0 {
			flag = db.wireNested[pos]
		}
		buf = append(buf, flag)
	}
	buf = binary.AppendUvarint(buf, uint64(len(sorted)))
	buf = binary.AppendUvarint(buf, db.processed)

	for _, b := range sorted {
		buf = binary.AppendUvarint(buf, uint64(b.groups))
		buf = append(buf, b.key...)
		for i := range b.accs {
			buf = appendAccum(buf, &b.accs[i])
		}
	}
	return buf
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// accumLen is the number of bytes appendAccum writes for a.
func accumLen(a *accum) int {
	n := 1 + uvarintLen(a.count) + uvarintLen(uint64(a.isum<<1^a.isum>>63)) + 16 +
		a.min.EncodedLen() + a.max.EncodedLen()
	if a.bins != nil {
		n += uvarintLen(uint64(len(a.bins)))
		for _, c := range a.bins {
			n += uvarintLen(c)
		}
	}
	return n
}

// appendAccum serializes one accumulator.
func appendAccum(buf []byte, a *accum) []byte {
	flags := byte(0)
	if a.seen {
		flags |= 1
	}
	if a.bins != nil {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, a.count)
	buf = binary.AppendVarint(buf, a.isum)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.fsum))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.sumsq))
	buf = a.min.AppendEncoded(buf)
	buf = a.max.AppendEncoded(buf)
	if a.bins != nil {
		buf = binary.AppendUvarint(buf, uint64(len(a.bins)))
		for _, c := range a.bins {
			buf = binary.AppendUvarint(buf, c)
		}
	}
	return buf
}

// wireReader tracks a decode position with error sticky-ness.
type wireReader struct {
	buf []byte
	pos int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: decode state: "+format, args...)
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("truncated uvarint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("truncated byte at offset %d", r.pos)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *wireReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.buf) {
		r.fail("truncated float at offset %d", r.pos)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return f
}

func (r *wireReader) variant() attr.Variant {
	if r.err != nil {
		return attr.Variant{}
	}
	v, n, err := attr.DecodeVariant(r.buf[r.pos:])
	if err != nil {
		r.fail("%v", err)
		return attr.Variant{}
	}
	r.pos += n
	return v
}

// canonical appends the canonical encoding of the next variant to dst.
func (r *wireReader) canonical(dst []byte) []byte {
	if r.err != nil {
		return dst
	}
	dst, n, err := attr.AppendCanonical(dst, r.buf[r.pos:])
	if err != nil {
		r.fail("%v", err)
	}
	r.pos += n
	return dst
}

// MergeEncodedState decodes a state blob produced by EncodeState (from a
// DB with an equal scheme) and merges its aggregation records into db.
func (db *DB) MergeEncodedState(data []byte) error {
	sp := trace.Begin("core.merge")
	if sp.Active() {
		sp.ArgInt("bytes", int64(len(data)))
		sp.Arg("scheme", db.scheme.String())
		defer func() {
			sp.ArgInt("buckets", int64(len(db.buckets)))
			sp.End()
		}()
	}
	r := &wireReader{buf: data}
	if v := r.byte(); r.err == nil && v != wireVersion {
		return fmt.Errorf("core: decode state: version %d, want %d", v, wireVersion)
	}
	nops := r.uvarint()
	if r.err == nil && nops != uint64(len(db.scheme.Ops)) {
		return fmt.Errorf("core: decode state: %d ops in stream, scheme has %d",
			nops, len(db.scheme.Ops))
	}
	for i := 0; i < int(nops) && r.err == nil; i++ {
		db.noteWireType(i, attr.Type(r.byte()))
	}
	nKeys := r.uvarint()
	if r.err == nil && nKeys != uint64(len(db.scheme.Key)) {
		return fmt.Errorf("core: decode state: %d key attributes in stream, scheme has %d",
			nKeys, len(db.scheme.Key))
	}
	for i := 0; i < int(nKeys) && r.err == nil; i++ {
		db.noteWireNested(i, r.byte())
	}
	nBuckets := r.uvarint()
	processed := r.uvarint()

	// guard against corrupt counts: every bucket and value needs at least
	// one byte of input, so any count beyond the remaining buffer cannot
	// be real — and must not size an allocation
	if r.err == nil && nBuckets > uint64(len(r.buf)-r.pos) {
		return fmt.Errorf("core: decode state: implausible bucket count %d", nBuckets)
	}

	if db.wireAccs == nil {
		db.wireAccs = make([]accum, len(db.scheme.Ops))
	}
	accs := db.wireAccs
	for bi := uint64(0); bi < nBuckets && r.err == nil; bi++ {
		nGroups := r.uvarint()
		if r.err == nil && nGroups > uint64(len(db.scheme.Key)) {
			return fmt.Errorf("core: decode state: %d key groups, scheme key has %d attributes",
				nGroups, len(db.scheme.Key))
		}
		// the key is re-encoded value by value straight into the lookup
		// buffer: what comes out is the one canonical spelling bucketFor
		// would have produced, whatever varints the sender wrote
		db.keyBuf = db.keyBuf[:0]
		prev := -1
		for gi := uint64(0); gi < nGroups && r.err == nil; gi++ {
			pos := r.uvarint()
			nVals := r.uvarint()
			if r.err != nil {
				break
			}
			if pos >= uint64(len(db.scheme.Key)) {
				return fmt.Errorf("core: decode state: key position %d out of range", pos)
			}
			// bucketFor writes positions in ascending order and only those
			// that have values; any other shape would be a second bucket
			// for one logical key, and an empty group has no value to
			// reconstruct the key attribute from at flush time
			if int(pos) <= prev {
				return fmt.Errorf("core: decode state: key position %d not in ascending order", pos)
			}
			prev = int(pos)
			if nVals == 0 {
				return fmt.Errorf("core: decode state: key group at position %d has no values", pos)
			}
			if nVals > uint64(len(r.buf)-r.pos) {
				return fmt.Errorf("core: decode state: implausible value count %d", nVals)
			}
			db.keyBuf = binary.AppendUvarint(db.keyBuf, pos)
			db.keyBuf = binary.AppendUvarint(db.keyBuf, nVals)
			for vi := uint64(0); vi < nVals && r.err == nil; vi++ {
				db.keyBuf = r.canonical(db.keyBuf)
			}
		}
		db.wireBins = db.wireBins[:0]
		for i := range accs {
			db.decodeAccum(r, &accs[i])
		}
		if r.err != nil {
			return r.err
		}
		// histogram bins are sized by the scheme (HistBins + under/overflow)
		// and present whenever the accumulator saw input; accepting any
		// other shape would panic in merge or render later
		for i := range accs {
			op := &db.scheme.Ops[i]
			if op.Kind == OpHistogram {
				if (accs[i].bins != nil || accs[i].seen) && len(accs[i].bins) != op.HistBins+2 {
					return fmt.Errorf("core: decode state: op %d: histogram size %d, want %d",
						i, len(accs[i].bins), op.HistBins+2)
				}
			} else if accs[i].bins != nil {
				return fmt.Errorf("core: decode state: op %d: unexpected histogram bins", i)
			}
		}
		b, ok := db.buckets[string(db.keyBuf)]
		if !ok {
			b = db.newBucket(string(db.keyBuf), int(nGroups))
		}
		for i := range accs {
			b.accs[i].merge(&db.scheme.Ops[i], &accs[i])
		}
	}
	if r.err != nil {
		return r.err
	}
	db.processed += processed
	return nil
}

// decodeAccum reads one accumulator into a. Histogram bins land in the
// database's bin scratch, which one bucket's accumulators share: accum.merge
// copies what it keeps, so a is good until the next bucket is decoded.
func (db *DB) decodeAccum(r *wireReader, a *accum) {
	flags := r.byte()
	*a = accum{seen: flags&1 != 0}
	a.count = r.uvarint()
	a.isum = r.varint()
	a.fsum = r.float()
	a.sumsq = r.float()
	a.min = r.variant()
	a.max = r.variant()
	if flags&2 != 0 {
		n := r.uvarint()
		if r.err == nil && (n > 1<<20 || n > uint64(len(r.buf)-r.pos)) {
			r.fail("implausible histogram size %d", n)
			return
		}
		if db.wireBins == nil {
			// present bins are non-nil even when there are none of them:
			// presence is what the caller's shape check reads
			db.wireBins = []uint64{}
		}
		start := len(db.wireBins)
		for i := uint64(0); i < n; i++ {
			db.wireBins = append(db.wireBins, r.uvarint())
		}
		a.bins = db.wireBins[start:]
	}
}
