// Package query executes parsed CalQL queries over record streams: it
// applies LET preprocessing, WHERE filtering, aggregation (through
// internal/core), projection, ordering, and output formatting. It is the
// engine behind off-line cross-process aggregation and analytical
// aggregation (Section IV-C) and is reused verbatim by the on-line
// aggregation service — the same description language drives both, which
// is the paper's central design point.
package query

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/calql"
	"caligo/internal/contexttree"
	"caligo/internal/core"
	"caligo/internal/snapshot"
	"caligo/internal/trace"
)

// Engine executes one query over a stream of records.
type Engine struct {
	q   *calql.Query
	reg *attr.Registry

	db    *core.DB              // nil when the query does not aggregate
	rows  []snapshot.FlatRecord // collected rows for non-aggregating queries
	lets  []resolvedLet
	where Where

	// rd is the reader every unit this engine scans decodes through, reset
	// per unit (see reader): a scan worker has one engine, so it grows one
	// node arena and scan buffer for all of its files.
	rd *calformat.Reader

	// prof is the query profile the engine's reduce, postprocess and
	// format spans end into (nil: trace spans only).
	prof *trace.Profile
}

// readers is the free list of the readers finished scan workers hand
// back: an emulated rank is a worker with one file, so without it every
// rank of every query would grow a scan buffer and a node arena of its
// own. It retains as many parked readers as the most scan workers that
// ever ran at once. It is not a sync.Pool: a collection empties a pool,
// and the next query's workers would regrow their arenas. A parked reader
// sits on an empty source with no registry, so the list pins neither
// files nor registries, and Reset's registry check clears the intern
// table when the reader is taken up again.
var readers struct {
	mu   sync.Mutex
	free []*calformat.Reader
}

// parked is the source of a reader on the readers list.
type parked struct{}

func (parked) Read([]byte) (int, error) { return 0, io.EOF }

// resolvedLet caches the derived attribute handle for a LET definition.
type resolvedLet struct {
	def  calql.LetDef
	attr attr.Attribute
}

// compiledCond is one WHERE condition precompiled at engine construction:
// the numeric literal is parsed once (instead of per record per condition)
// and the attribute handle is resolved once so per-record lookups compare
// ids instead of labels. Resolution is lazy because input attributes are
// typically registered only as records stream in.
type compiledCond struct {
	cond   calql.Condition
	id     attr.ID      // resolved attribute id; InvalidID until first found
	numLit attr.Variant // cond.Value parsed as Float, when it parses
	numOK  bool
}

// eval evaluates the condition over a record; the interpreting oracle in
// cond_test.go is the same semantics spelled out.
func (cc *compiledCond) eval(rec snapshot.FlatRecord, reg *attr.Registry) bool {
	if cc.id == attr.InvalidID {
		if a, ok := reg.Find(cc.cond.Attr); ok {
			cc.id = a.ID()
		}
	}
	var v attr.Variant
	var present bool
	if cc.id != attr.InvalidID {
		v, present = rec.Get(cc.id)
	}
	var result bool
	switch cc.cond.Op {
	case calql.CondExist:
		result = present
	default:
		if !present {
			// comparisons against an absent attribute are false (and
			// not(...) of them true)
			return cc.cond.Negate
		}
		var cmp int
		numeric := false
		if cc.numOK {
			switch v.Kind() {
			case attr.Int, attr.Uint, attr.Float, attr.Bool:
				cmp = attr.Compare(attr.FloatV(v.AsFloat()), cc.numLit)
				numeric = true
			}
		}
		if !numeric {
			cmp = attr.Compare(attr.StringV(v.String()), attr.StringV(cc.cond.Value))
		}
		switch cc.cond.Op {
		case calql.CondEq:
			result = cmp == 0
		case calql.CondLt:
			result = cmp < 0
		case calql.CondLe:
			result = cmp <= 0
		case calql.CondGt:
			result = cmp > 0
		case calql.CondGe:
			result = cmp >= 0
		}
	}
	if cc.cond.Negate {
		return !result
	}
	return result
}

// New prepares an engine for the query. The registry is shared with the
// record producers (readers or the runtime).
func New(q *calql.Query, reg *attr.Registry) (*Engine, error) {
	e := &Engine{q: q, reg: reg}
	if q.HasAggregation() {
		scheme, err := q.Scheme()
		if err != nil {
			return nil, err
		}
		db, err := core.NewDB(scheme, reg)
		if err != nil {
			return nil, err
		}
		e.db = db
	}
	for _, def := range q.Lets {
		var typ attr.Type
		switch def.Kind {
		case calql.LetScale, calql.LetTruncate:
			typ = attr.Float
		case calql.LetFirst:
			typ = attr.String
		}
		a, err := reg.Create(def.Name, typ, attr.AsValue)
		if err != nil {
			return nil, fmt.Errorf("query: LET %s: %w", def.Name, err)
		}
		e.lets = append(e.lets, resolvedLet{def: def, attr: a})
	}
	e.where = CompileWhere(q.Where, reg)
	return e, nil
}

// Where is a WHERE clause — the AND of its conditions — compiled against
// one registry. Matching resolves attribute ids into the compiled
// conditions lazily, so a Where belongs to one goroutine: every Engine has
// its own, and the runtime's aggregate service compiles one per thread.
type Where struct {
	conds []compiledCond
	reg   *attr.Registry
}

// CompileWhere precompiles conds for records resolved against reg.
func CompileWhere(conds []calql.Condition, reg *attr.Registry) Where {
	w := Where{conds: make([]compiledCond, len(conds)), reg: reg}
	for i, c := range conds {
		cc := compiledCond{cond: c, id: attr.InvalidID}
		if lv, err := attr.ParseAs(c.Value, attr.Float); err == nil {
			cc.numLit, cc.numOK = lv, true
		}
		if a, ok := reg.Find(c.Attr); ok {
			cc.id = a.ID()
		}
		w.conds[i] = cc
	}
	return w
}

// Match reports whether rec satisfies every condition.
func (w *Where) Match(rec snapshot.FlatRecord) bool {
	for i := range w.conds {
		if !w.conds[i].eval(rec, w.reg) {
			return false
		}
	}
	return true
}

// reader returns the engine's reader, reset onto src.
func (e *Engine) reader(src io.Reader, reg *attr.Registry, tree *contexttree.Tree) *calformat.Reader {
	if e.rd == nil {
		readers.mu.Lock()
		if n := len(readers.free); n > 0 {
			e.rd = readers.free[n-1]
			readers.free = readers.free[:n-1]
		}
		readers.mu.Unlock()
		if e.rd == nil {
			e.rd = calformat.NewReader(parked{}, nil, nil)
		}
	}
	e.rd.Reset(src, reg, tree)
	return e.rd
}

// releaseReader hands the engine's reader, if it took one, to the readers
// list. The engine's results do not depend on it: records are copied out
// of the reader's buffers as they are processed.
func (e *Engine) releaseReader() {
	if e.rd != nil {
		e.rd.Reset(parked{}, nil, nil)
		readers.mu.Lock()
		readers.free = append(readers.free, e.rd)
		readers.mu.Unlock()
		e.rd = nil
	}
}

// DB exposes the engine's aggregation database (nil for non-aggregating
// queries). The parallel query application uses it for tree reduction.
func (e *Engine) DB() *core.DB { return e.db }

// Process feeds one record through the query pipeline. The record is
// borrowed: callers may reuse its storage after Process returns (the
// calformat.Reader.NextInto read loops do), so anything the engine
// retains past this call is cloned.
func (e *Engine) Process(rec snapshot.FlatRecord) error {
	rec = e.applyLets(rec)
	if !e.where.Match(rec) {
		return nil
	}
	if e.db != nil {
		// DB.Update copies what it aggregates; nothing of rec survives.
		e.db.Update(rec)
		return nil
	}
	e.rows = append(e.rows, rec.Clone())
	return nil
}

// applyLets appends derived entries to the record.
func (e *Engine) applyLets(rec snapshot.FlatRecord) snapshot.FlatRecord {
	if len(e.lets) == 0 {
		return rec
	}
	out := rec
	for _, l := range e.lets {
		switch l.def.Kind {
		case calql.LetScale:
			if v, ok := out.GetByName(l.def.Args[0]); ok {
				out = append(out, attr.Entry{Attr: l.attr,
					Value: attr.FloatV(v.AsFloat() * l.def.Factor)})
			}
		case calql.LetTruncate:
			if v, ok := out.GetByName(l.def.Args[0]); ok {
				step := l.def.Factor
				out = append(out, attr.Entry{Attr: l.attr,
					Value: attr.FloatV(math.Floor(v.AsFloat()/step) * step)})
			}
		case calql.LetFirst:
			for _, src := range l.def.Args {
				if v, ok := out.GetByName(src); ok {
					out = append(out, attr.Entry{Attr: l.attr,
						Value: attr.StringV(v.String())})
					break
				}
			}
		}
	}
	return out
}

// Size reports the engine's current result size: aggregation records for
// aggregating queries, collected rows otherwise.
func (e *Engine) Size() int {
	if e.db != nil {
		return e.db.Len()
	}
	return len(e.rows)
}

// Results finalizes the query: flushes the aggregation database (if any),
// evaluates post-aggregation operators, and applies ORDER BY and LIMIT.
func (e *Engine) Results() ([]snapshot.FlatRecord, error) {
	// the reduce span covers turning accumulated state into result rows;
	// non-aggregating queries pass their collected rows through, which is
	// still the pipeline's reduce position (mode arg tells them apart)
	sp := e.prof.Begin("query.reduce", 0)
	var rows []snapshot.FlatRecord
	if e.db != nil {
		sp.Arg("mode", "flush")
		sp.ArgInt("buckets", int64(e.db.Len()))
		var err error
		rows, err = e.db.FlushRecords()
		if err != nil {
			sp.End()
			return nil, err
		}
	} else {
		sp.Arg("mode", "passthrough")
		rows = e.rows
	}
	sp.ArgInt("rows", int64(len(rows)))
	sp.End()
	return postprocess(e.prof, e.q, e.reg, rows)
}

// postprocess runs the shared post-aggregation tail: post-ops, ORDER BY,
// LIMIT. One definition serves Results and Finalize so the
// query.postprocess span means the same thing on every path.
func postprocess(prof *trace.Profile, q *calql.Query, reg *attr.Registry, rows []snapshot.FlatRecord) ([]snapshot.FlatRecord, error) {
	sp := prof.Begin("query.postprocess", 0)
	sp.ArgInt("rows_in", int64(len(rows)))
	rows, err := ApplyPostOps(q, reg, rows)
	if err != nil {
		sp.End()
		return nil, err
	}
	if len(q.OrderBy) > 0 {
		sortRows(rows, resolveOrderAliases(q))
	}
	if q.Limit >= 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	sp.ArgInt("rows_out", int64(len(rows)))
	sp.End()
	return rows, nil
}

// resolveOrderAliases maps ORDER BY labels through SELECT ... AS aliases,
// so "SELECT sum#x AS total ... ORDER BY total" works.
func resolveOrderAliases(q *calql.Query) []calql.OrderItem {
	if len(q.Select) == 0 {
		return q.OrderBy
	}
	byAlias := map[string]string{}
	for _, s := range q.Select {
		if s.Alias != "" {
			byAlias[s.Alias] = s.Label
		}
	}
	if len(byAlias) == 0 {
		return q.OrderBy
	}
	out := make([]calql.OrderItem, len(q.OrderBy))
	copy(out, q.OrderBy)
	for i := range out {
		if label, ok := byAlias[out[i].Label]; ok {
			out[i].Label = label
		}
	}
	return out
}

// postOpInput reads the column a post-op refers to: the named attribute
// itself, or its sum#-result when the name refers to a raw attribute that
// was aggregated.
func postOpInput(row snapshot.FlatRecord, target string) (float64, bool) {
	if v, ok := row.GetByName(target); ok {
		return v.AsFloat(), true
	}
	if v, ok := row.GetByName("sum#" + target); ok {
		return v.AsFloat(), true
	}
	return 0, false
}

// ApplyPostOps evaluates a query's post-aggregation operators
// (percent_total, ratio) over the result rows, appending one derived
// entry per row. Exported for the parallel query path, which finalizes
// rows outside an Engine.
func ApplyPostOps(q *calql.Query, reg *attr.Registry, rows []snapshot.FlatRecord) ([]snapshot.FlatRecord, error) {
	for _, po := range q.PostOps {
		a, err := reg.Create(po.ResultName(), attr.Float, attr.AsValue|attr.SkipEvents)
		if err != nil {
			return nil, fmt.Errorf("query: %s: %w", po.ResultName(), err)
		}
		switch po.Kind {
		case calql.PostPercentTotal:
			total := 0.0
			for _, row := range rows {
				if v, ok := postOpInput(row, po.Target); ok {
					total += v
				}
			}
			if total == 0 {
				continue
			}
			for i, row := range rows {
				if v, ok := postOpInput(row, po.Target); ok {
					rows[i] = append(row, attr.Entry{Attr: a,
						Value: attr.FloatV(100 * v / total)})
				}
			}
		case calql.PostRatio:
			for i, row := range rows {
				num, okN := postOpInput(row, po.Target)
				den, okD := postOpInput(row, po.Target2)
				if okN && okD && den != 0 {
					rows[i] = append(row, attr.Entry{Attr: a,
						Value: attr.FloatV(num / den)})
				}
			}
		}
	}
	return rows, nil
}

// sortRows orders rows by the given keys. Missing values sort first.
//
// Decorate-sort-undecorate: sort key values are extracted once per row per
// key (GetByName is a linear scan over the record), instead of twice per
// comparison inside the sort loop.
func sortRows(rows []snapshot.FlatRecord, keys []calql.OrderItem) {
	if len(rows) < 2 || len(keys) == 0 {
		return
	}
	type decorated struct {
		row  snapshot.FlatRecord
		vals []attr.Variant
		oks  []bool
	}
	vals := make([]attr.Variant, len(rows)*len(keys))
	oks := make([]bool, len(rows)*len(keys))
	deco := make([]decorated, len(rows))
	for i, row := range rows {
		v := vals[i*len(keys) : (i+1)*len(keys)]
		o := oks[i*len(keys) : (i+1)*len(keys)]
		for ki, k := range keys {
			v[ki], o[ki] = row.GetByName(k.Label)
		}
		deco[i] = decorated{row: row, vals: v, oks: o}
	}
	sort.SliceStable(deco, func(i, j int) bool {
		a, b := &deco[i], &deco[j]
		for ki := range keys {
			var cmp int
			switch {
			case !a.oks[ki] && !b.oks[ki]:
				cmp = 0
			case !a.oks[ki]:
				cmp = -1
			case !b.oks[ki]:
				cmp = 1
			default:
				cmp = attr.Compare(a.vals[ki], b.vals[ki])
			}
			if keys[ki].Descending {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	for i := range deco {
		rows[i] = deco[i].row
	}
}

// Finalize applies a query's post-aggregation operators and its ORDER BY
// and LIMIT clauses to result rows produced elsewhere (e.g. by the
// parallel cross-process reduction, which aggregates outside an Engine).
func Finalize(q *calql.Query, reg *attr.Registry, rows []snapshot.FlatRecord) []snapshot.FlatRecord {
	return finalize(nil, q, reg, rows)
}

func finalize(prof *trace.Profile, q *calql.Query, reg *attr.Registry, rows []snapshot.FlatRecord) []snapshot.FlatRecord {
	if out, err := postprocess(prof, q, reg, rows); err == nil {
		return out
	}
	// lenient on post-op errors (e.g. result attribute already exists):
	// fall back to ordering and limiting the rows as-is
	if len(q.OrderBy) > 0 {
		sortRows(rows, resolveOrderAliases(q))
	}
	if q.Limit >= 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return rows
}

// Run is a convenience wrapper: process all records and return results.
func Run(q *calql.Query, reg *attr.Registry, recs []snapshot.FlatRecord) ([]snapshot.FlatRecord, error) {
	e, err := New(q, reg)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := e.Process(r); err != nil {
			return nil, err
		}
	}
	return e.Results()
}
