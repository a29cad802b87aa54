package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"caligo/internal/attr"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

// Self-instrumentation (see docs/OBSERVABILITY.md). All counters are
// no-ops (one atomic load) unless telemetry is enabled.
var (
	telUpdates  = telemetry.NewCounter("caligo.core.updates")
	telMerges   = telemetry.NewCounter("caligo.core.merges")
	telBuckets  = telemetry.NewCounter("caligo.core.buckets")
	telKeyBytes = telemetry.NewCounter("caligo.core.keybytes")
)

// DB is the in-memory aggregation database of Section IV-B: it keeps one
// aggregation record per unique set of key-attribute values, identified by
// a compact, collision-free key encoding, and updates the records with
// streaming reduction operators.
//
// A DB is owned by a single thread of execution (Caliper keeps one per
// monitored thread to avoid locks); it is not safe for concurrent use.
// Cross-thread and cross-process totals are obtained by merging DBs.
type DB struct {
	scheme *Scheme
	reg    *attr.Registry

	buckets map[string]*bucket
	// order logs buckets in insertion order, so Merge can walk the source
	// without allocating and sorting a key snapshot per call.
	order []*bucket
	// flushOrder caches the key-sorted bucket order Flush and EncodeState
	// emit in; it is invalidated whenever a bucket is inserted.
	flushOrder []*bucket

	// roles caches, per attribute id, how the attribute participates in
	// the scheme. Grown lazily as new attribute ids appear.
	roles []role

	// scratch state reused across Update calls to avoid allocation.
	keyVals [][]attr.Variant // per key position: observed values in order
	opVal   []attr.Variant   // per op: innermost direct target value
	opHas   []bool
	reVal   []attr.Variant // per op: innermost pre-aggregated (re-agg) value
	reHas   []bool
	keyBuf  []byte

	// bucketSlab is the chunk new buckets are carved from (newBucket):
	// buckets live until Clear, so they need no allocation of their own
	// each.
	bucketSlab []bucket

	// scratch MergeEncodedState decodes one incoming bucket's accumulators
	// and histogram bins into before merging them.
	wireAccs []accum
	wireBins []uint64

	processed uint64

	// wireTypes records target types received in encoded state, used when
	// the local registry has never seen the target attribute (cross-process
	// reduction at a root that only handles pre-aggregated data).
	wireTypes []attr.Type
	// wireNested records key-attribute nested flags received in encoded
	// state (index = key position; 0 = unknown, 2 = known, 3 = nested).
	wireNested []byte
}

// role describes one attribute's participation in the scheme.
type role struct {
	resolved bool
	keyPos   int16 // position in scheme.Key, or -1
	targetOf []int // ops for which this attribute is the direct target
	reaggOf  []int // ops for which this attribute is the pre-aggregated result
}

// bucket is one aggregation record: the collision-free key encoding (which
// doubles as the bucket-map key) and the accumulator state per operator.
// The key groups it was built from are reconstructed by decoding key — the
// encoding is injective, so nothing is lost by not storing them twice; only
// their number is kept, because the wire form of a key is that number
// followed by the key's own bytes (wire.go).
type bucket struct {
	key    string
	accs   []accum
	groups int
}

type keyGroup struct {
	pos    int
	values []attr.Variant
}

// NewDB returns an empty aggregation database for the given scheme.
// Result attributes are created in reg at flush time.
func NewDB(scheme *Scheme, reg *attr.Registry) (*DB, error) {
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	return &DB{
		scheme:  scheme,
		reg:     reg,
		buckets: map[string]*bucket{},
		keyVals: make([][]attr.Variant, len(scheme.Key)),
		opVal:   make([]attr.Variant, len(scheme.Ops)),
		opHas:   make([]bool, len(scheme.Ops)),
		reVal:   make([]attr.Variant, len(scheme.Ops)),
		reHas:   make([]bool, len(scheme.Ops)),
	}, nil
}

// Len returns the number of aggregation records (unique keys).
func (db *DB) Len() int { return len(db.buckets) }

// resolveRole computes the scheme role of one attribute.
func (db *DB) resolveRole(a attr.Attribute) role {
	r := role{resolved: true, keyPos: -1}
	name := a.Name()
	for i, k := range db.scheme.Key {
		if k == name {
			r.keyPos = int16(i)
			break
		}
	}
	for i, op := range db.scheme.Ops {
		if op.Kind.NeedsTarget() && op.Target == name {
			r.targetOf = append(r.targetOf, i)
		}
		// pre-aggregated result names compose re-aggregation:
		// count <- aggregate.count, sum(x) <- sum#x, min(x) <- min#x, ...
		switch op.Kind {
		case OpCount:
			if name == CountResultName {
				r.reaggOf = append(r.reaggOf, i)
			}
		case OpSum, OpMin, OpMax, OpScount, OpInclusiveSum:
			if name == op.Kind.String()+"#"+op.Target {
				r.reaggOf = append(r.reaggOf, i)
			}
		}
	}
	return r
}

// roleOf returns the cached role for an attribute, resolving it on first
// encounter.
func (db *DB) roleOf(a attr.Attribute) *role {
	id := int(a.ID())
	if id >= len(db.roles) {
		grown := make([]role, id+16)
		copy(grown, db.roles)
		db.roles = grown
	}
	r := &db.roles[id]
	if !r.resolved {
		*r = db.resolveRole(a)
	}
	return r
}

// Update folds one record into the database: it extracts the key and
// aggregation attributes, locates the aggregation record for the key
// (creating it if needed), and applies the reduction operators
// (the workflow of Figure 2).
func (db *DB) Update(rec snapshot.FlatRecord) {
	db.processed++
	telUpdates.Inc()

	// reset scratch
	for i := range db.keyVals {
		db.keyVals[i] = db.keyVals[i][:0]
	}
	for i := range db.opHas {
		db.opHas[i] = false
		db.reHas[i] = false
	}

	// single pass: classify each entry by its attribute's role
	for _, e := range rec {
		r := db.roleOf(e.Attr)
		if r.keyPos >= 0 {
			db.keyVals[r.keyPos] = append(db.keyVals[r.keyPos], e.Value)
		}
		for _, i := range r.targetOf {
			db.opVal[i] = e.Value // innermost (last) wins
			db.opHas[i] = true
		}
		for _, i := range r.reaggOf {
			db.reVal[i] = e.Value
			db.reHas[i] = true
		}
	}

	b := db.bucketFor()

	// apply operators
	for i := range db.scheme.Ops {
		spec := &db.scheme.Ops[i]
		acc := &b.accs[i]
		switch spec.Kind {
		case OpCount:
			if db.reHas[i] {
				acc.update(spec, db.reVal[i]) // sum pre-aggregated counts
			} else {
				acc.update(spec, attr.UintV(1))
			}
		case OpScount:
			if db.opHas[i] {
				acc.update(spec, attr.UintV(1))
			} else if db.reHas[i] {
				acc.update(spec, db.reVal[i])
			}
		case OpSum, OpMin, OpMax, OpInclusiveSum:
			if db.opHas[i] {
				acc.update(spec, db.opVal[i])
			} else if db.reHas[i] {
				acc.update(spec, db.reVal[i])
			}
		default: // avg, stddev, histogram: direct observations only
			if db.opHas[i] {
				acc.update(spec, db.opVal[i])
			}
		}
	}
}

// Bucket chunks double from slabMin up to slabMax buckets, so a
// database of a few groups (one per thread, per rank, per cached file) does
// not pay for a large chunk. The sizes are those of 512-byte to 4 KiB
// allocations less the allocator's 8-byte header.
const slabMin, slabMax = 10, 85

// newBucket creates the bucket for a canonical key encoding of the given
// number of key groups, registers it under the key and logs the insertion
// order. The bucket comes out of the database's current chunk. Its
// accumulators are an allocation of their own: for the usual one to four
// operators they fill a size class exactly, where a chunk of them would
// pay the header and round up to the next class (12 % at 16 KiB) on top of
// what its tail leaves unused.
func (db *DB) newBucket(key string, groups int) *bucket {
	if len(db.bucketSlab) == cap(db.bucketSlab) {
		db.bucketSlab = make([]bucket, 0, min(max(2*cap(db.bucketSlab), slabMin), slabMax))
	}
	db.bucketSlab = db.bucketSlab[:len(db.bucketSlab)+1]
	b := &db.bucketSlab[len(db.bucketSlab)-1]
	*b = bucket{key: key, accs: make([]accum, len(db.scheme.Ops)), groups: groups}

	telBuckets.Inc()
	telKeyBytes.Add(uint64(len(key)))
	db.buckets[key] = b
	db.order = append(db.order, b)
	db.flushOrder = nil
	return b
}

// bucketFor computes the collision-free key encoding from the scratch key
// values and returns the bucket, creating it if needed.
//
// The encoding writes, for each key position that has values, the position
// index followed by the value count and the self-delimiting variant
// encodings. It is injective per scheme: equal encodings imply equal key
// paths, which makes key reconstruction at flush time exact (the paper's
// "compact, collision-free hash value").
func (db *DB) bucketFor() *bucket {
	db.keyBuf = db.keyBuf[:0]
	groups := 0
	for pos, vals := range db.keyVals {
		if len(vals) == 0 {
			continue
		}
		groups++
		db.keyBuf = binary.AppendUvarint(db.keyBuf, uint64(pos))
		db.keyBuf = binary.AppendUvarint(db.keyBuf, uint64(len(vals)))
		for _, v := range vals {
			db.keyBuf = v.AppendEncoded(db.keyBuf)
		}
	}
	if b, ok := db.buckets[string(db.keyBuf)]; ok {
		return b
	}
	return db.newBucket(string(db.keyBuf), groups)
}

// decodeKeyGroups reconstructs the (key position, value path) groups from a
// bucket's canonical key encoding — the inverse of bucketFor's encoder.
func (db *DB) decodeKeyGroups(key string) ([]keyGroup, error) {
	buf := []byte(key)
	var groups []keyGroup
	for pos := 0; pos < len(buf); {
		kpos, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("core: decode key: bad position at offset %d", pos)
		}
		pos += n
		cnt, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("core: decode key: bad value count at offset %d", pos)
		}
		pos += n
		if kpos >= uint64(len(db.scheme.Key)) {
			return nil, fmt.Errorf("core: decode key: position %d out of range", kpos)
		}
		vals := make([]attr.Variant, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			v, n, err := attr.DecodeVariant(buf[pos:])
			if err != nil {
				return nil, fmt.Errorf("core: decode key: %w", err)
			}
			pos += n
			vals = append(vals, v)
		}
		groups = append(groups, keyGroup{pos: int(kpos), values: vals})
	}
	return groups, nil
}

// Merge folds all aggregation records of other into db. Both databases
// must use equal schemes. other is left unchanged.
//
// The source is walked in its insertion order (recorded once, when each
// bucket was created), so a merge allocates nothing beyond the buckets it
// creates: key encodings are canonical and scheme-relative, so the source's
// key strings are reused directly for lookup and insertion.
func (db *DB) Merge(other *DB) error {
	telMerges.Inc()
	if db == other {
		return fmt.Errorf("core: merge: cannot merge a database into itself")
	}
	if !db.scheme.Equal(other.scheme) {
		return fmt.Errorf("core: merge: schemes differ: %q vs %q", db.scheme, other.scheme)
	}
	// propagate metadata the source learned over the wire: if other's
	// records came from decoded state (e.g. a cache hit) and our registry
	// never saw the target attributes, their resolved types and nested
	// flags must survive the merge or results render with Float defaults
	for i := range other.scheme.Ops {
		if db.wireTypes == nil || db.wireTypes[i] == attr.Inv {
			if other.wireTypes != nil {
				db.noteWireType(i, other.wireTypes[i])
			}
		}
	}
	for pos := range other.scheme.Key {
		if other.wireNested != nil {
			db.noteWireNested(pos, other.wireNested[pos])
		}
	}
	for _, sb := range other.order {
		b, ok := db.buckets[sb.key]
		if !ok {
			b = db.newBucket(sb.key, sb.groups)
		}
		for i := range sb.accs {
			b.accs[i].merge(&db.scheme.Ops[i], &sb.accs[i])
		}
	}
	db.processed += other.processed
	return nil
}

// noteWireNested records a key attribute's nested flag from encoded state.
func (db *DB) noteWireNested(keyPos int, flag byte) {
	if keyPos < 0 || keyPos >= len(db.scheme.Key) || flag&2 == 0 {
		return
	}
	if db.wireNested == nil {
		db.wireNested = make([]byte, len(db.scheme.Key))
	}
	db.wireNested[keyPos] = flag
}

// keyIsNested reports whether the key attribute at a position has nested
// (hierarchical) semantics, consulting the local registry first and then
// metadata received over the wire.
func (db *DB) keyIsNested(pos int, keyAttrs []attr.Attribute) bool {
	if keyAttrs[pos].IsValid() {
		return keyAttrs[pos].IsNested()
	}
	if db.wireNested != nil && db.wireNested[pos]&2 != 0 {
		return db.wireNested[pos]&1 != 0
	}
	return false
}

// noteWireType records a target type received in encoded state.
func (db *DB) noteWireType(opIndex int, t attr.Type) {
	if opIndex < 0 || opIndex >= len(db.scheme.Ops) || t == attr.Inv {
		return
	}
	if db.wireTypes == nil {
		db.wireTypes = make([]attr.Type, len(db.scheme.Ops))
	}
	db.wireTypes[opIndex] = t
}

// targetType finds the output type basis of operator i: the target
// attribute's type if registered, else the pre-aggregated result
// attribute's type, else a type learned from received encoded state. It is
// attr.Inv when none of them knows — a database that has seen neither
// input nor typed state, such as an idle rank's. Flush then falls back to
// Float; EncodeState sends the Inv, which a receiver ignores, so that an
// idle sender's guess never overrides a type the receiver learned.
func (db *DB) targetType(i int) attr.Type {
	op := &db.scheme.Ops[i]
	if !op.Kind.NeedsTarget() {
		return attr.Uint
	}
	if a, ok := db.reg.Find(op.Target); ok {
		return a.Type()
	}
	if a, ok := db.reg.Find(op.Kind.String() + "#" + op.Target); ok {
		return a.Type()
	}
	if db.wireTypes != nil {
		return db.wireTypes[i]
	}
	return attr.Inv
}

// sortedBuckets returns the buckets ordered by key encoding — the
// deterministic emission order of Flush and EncodeState. The order is
// cached and only recomputed after new buckets were inserted, so repeated
// flushes of a stable database skip the sort.
func (db *DB) sortedBuckets() []*bucket {
	if db.flushOrder == nil {
		db.flushOrder = make([]*bucket, len(db.order))
		copy(db.flushOrder, db.order)
		slices.SortFunc(db.flushOrder, func(a, b *bucket) int {
			return strings.Compare(a.key, b.key)
		})
	}
	return db.flushOrder
}

// Flush reconstructs the key attributes of every aggregation record,
// appends the reduction results, and emits one output record per unique
// key through emit, ordered deterministically by key encoding. The
// database contents are retained (call Clear to reset).
//
// Result attributes (e.g. "aggregate.count", "sum#time.duration") are
// created in the registry with AsValue|Aggregatable|SkipEvents properties.
func (db *DB) Flush(emit func(snapshot.FlatRecord) error) error {
	// create result attributes once
	resAttrs := make([]attr.Attribute, len(db.scheme.Ops))
	resTypes := make([]attr.Type, len(db.scheme.Ops))
	for i := range db.scheme.Ops {
		op := &db.scheme.Ops[i]
		tt := db.targetType(i)
		if tt == attr.Inv {
			tt = attr.Float
		}
		resTypes[i] = tt
		a, err := db.reg.Create(op.ResultName(), op.ResultType(tt),
			attr.AsValue|attr.Aggregatable|attr.SkipEvents)
		if err != nil {
			return fmt.Errorf("core: flush: %w", err)
		}
		resAttrs[i] = a
	}
	keyAttrs := make([]attr.Attribute, len(db.scheme.Key))
	// key attributes may or may not be registered; leave invalid handles
	// for positions we never saw (their groups are empty anyway).
	for i, name := range db.scheme.Key {
		if a, ok := db.reg.Find(name); ok {
			keyAttrs[i] = a
		} else {
			keyAttrs[i] = attr.Attribute{}
		}
	}

	sorted := db.sortedBuckets()
	groups := make([][]keyGroup, len(sorted))
	for i, b := range sorted {
		g, err := db.decodeKeyGroups(b.key)
		if err != nil {
			return fmt.Errorf("core: flush: %w", err)
		}
		groups[i] = g
	}

	inclusive := db.inclusiveAdditions(sorted, groups, keyAttrs)

	for bi, b := range sorted {
		rec := make(snapshot.FlatRecord, 0, len(groups[bi])+len(db.scheme.Ops))
		for _, g := range groups[bi] {
			ka := keyAttrs[g.pos]
			if !ka.IsValid() {
				// the attribute must exist if values were observed; recover
				// by creating it from the first value's type, preserving
				// nested semantics received over the wire
				var props attr.Properties
				if db.keyIsNested(g.pos, keyAttrs) {
					props = attr.Nested
				}
				typ := g.values[0].Kind()
				if typ == attr.Inv {
					typ = attr.String // an empty value carries no type; any will render it
				}
				a, err := db.reg.Create(db.scheme.Key[g.pos], typ, props)
				if err != nil {
					return fmt.Errorf("core: flush: reconstruct key attribute: %w", err)
				}
				keyAttrs[g.pos] = a
				ka = a
			}
			for _, v := range g.values {
				rec = append(rec, attr.Entry{Attr: ka, Value: v})
			}
		}
		for i := range db.scheme.Ops {
			acc := &b.accs[i]
			if add, ok := inclusive[b.key]; ok && db.scheme.Ops[i].Kind == OpInclusiveSum {
				acc = &add[i]
			}
			if v, ok := acc.result(&db.scheme.Ops[i], resTypes[i]); ok {
				rec = append(rec, attr.Entry{Attr: resAttrs[i], Value: v})
			}
		}
		if err := emit(rec); err != nil {
			return err
		}
	}
	return nil
}

// inclusiveAdditions computes, for schemes with inclusive_sum operators,
// the effective accumulators of every bucket: its own plus those of all
// descendant buckets. Bucket A is an ancestor of bucket B when, for every
// key attribute, A's value path equals B's — except along nested
// (hierarchical) attributes, where A's path may be a proper prefix of
// B's. This turns the exclusive per-path sums into inclusive region
// totals, as in Caliper's inclusive metrics. Returns nil when the scheme
// has no inclusive operators. groups holds the decoded key groups of each
// bucket in sorted, aligned by index.
func (db *DB) inclusiveAdditions(sorted []*bucket, groups [][]keyGroup, keyAttrs []attr.Attribute) map[string][]accum {
	hasInclusive := false
	for i := range db.scheme.Ops {
		if db.scheme.Ops[i].Kind == OpInclusiveSum {
			hasInclusive = true
			break
		}
	}
	if !hasInclusive || len(sorted) == 0 {
		return nil
	}
	nested := make([]bool, len(db.scheme.Key))
	for i := range db.scheme.Key {
		nested[i] = db.keyIsNested(i, keyAttrs)
	}
	// value paths per bucket per key position, nil when absent
	paths := func(groups []keyGroup) [][]attr.Variant {
		out := make([][]attr.Variant, len(db.scheme.Key))
		for _, g := range groups {
			out[g.pos] = g.values
		}
		return out
	}
	isPrefix := func(a, b []attr.Variant) bool {
		if len(a) > len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	ancestor := func(pa, pb [][]attr.Variant) bool {
		proper := false
		for p := range pa {
			if nested[p] {
				if !isPrefix(pa[p], pb[p]) {
					return false
				}
				if len(pa[p]) < len(pb[p]) {
					proper = true
				}
				continue
			}
			if len(pa[p]) != len(pb[p]) || !isPrefix(pa[p], pb[p]) {
				return false
			}
		}
		return proper
	}

	allPaths := make([][][]attr.Variant, len(sorted))
	for i := range sorted {
		allPaths[i] = paths(groups[i])
	}
	out := make(map[string][]accum, len(sorted))
	for _, b := range sorted {
		eff := make([]accum, len(db.scheme.Ops))
		copy(eff, b.accs)
		out[b.key] = eff
	}
	for i, ba := range sorted {
		for j, bb := range sorted {
			if i == j || !ancestor(allPaths[i], allPaths[j]) {
				continue
			}
			eff := out[ba.key]
			for oi := range db.scheme.Ops {
				if db.scheme.Ops[oi].Kind == OpInclusiveSum {
					eff[oi].merge(&db.scheme.Ops[oi], &bb.accs[oi])
				}
			}
		}
	}
	return out
}

// FlushRecords is Flush collecting the output records into a slice.
func (db *DB) FlushRecords() ([]snapshot.FlatRecord, error) {
	sp := trace.Begin("core.flush")
	sp.ArgInt("buckets", int64(len(db.buckets)))
	var out []snapshot.FlatRecord
	err := db.Flush(func(r snapshot.FlatRecord) error {
		out = append(out, r)
		return nil
	})
	sp.ArgInt("records", int64(len(out)))
	sp.End()
	return out, err
}

// Clear removes all aggregation records and resets counters. Role caches
// are retained.
func (db *DB) Clear() {
	db.buckets = map[string]*bucket{}
	db.order = nil
	db.flushOrder = nil
	db.bucketSlab = nil
	db.processed = 0
}
