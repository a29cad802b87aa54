package query

import (
	"fmt"
	"testing"

	"caligo/internal/attr"
	"caligo/internal/calql"
	"caligo/internal/snapshot"
)

// TestCompiledCondMatchesEvalCondition checks that the precompiled WHERE
// path agrees with the reference EvalCondition on every operator and the
// tricky edge cases: absent attributes under NOT, non-numeric literals
// compared against numeric values, bool comparisons, and string ordering.
func TestCompiledCondMatchesEvalCondition(t *testing.T) {
	reg := attr.NewRegistry()
	str := reg.MustCreate("label", attr.String, 0)
	num := reg.MustCreate("rank", attr.Int, 0)
	unum := reg.MustCreate("count", attr.Uint, attr.AsValue)
	fl := reg.MustCreate("ratio", attr.Float, attr.AsValue)
	bl := reg.MustCreate("flag", attr.Bool, attr.AsValue)

	records := []snapshot.FlatRecord{
		nil, // empty record: every attribute absent
		{{Attr: str, Value: attr.StringV("main")}},
		{{Attr: str, Value: attr.StringV("10")}}, // numeric-looking string
		{{Attr: num, Value: attr.IntV(-3)}},
		{{Attr: num, Value: attr.IntV(8)}},
		{{Attr: unum, Value: attr.UintV(42)}},
		{{Attr: fl, Value: attr.FloatV(2.5)}},
		{{Attr: bl, Value: attr.BoolV(true)}},
		{{Attr: bl, Value: attr.BoolV(false)}},
		{ // stacked values: innermost wins
			{Attr: str, Value: attr.StringV("outer")},
			{Attr: str, Value: attr.StringV("inner")},
		},
		{ // mixed record
			{Attr: str, Value: attr.StringV("main")},
			{Attr: num, Value: attr.IntV(8)},
			{Attr: fl, Value: attr.FloatV(0)},
		},
	}

	ops := []calql.CondOp{calql.CondExist, calql.CondEq, calql.CondLt,
		calql.CondLe, calql.CondGt, calql.CondGe}
	attrs := []string{"label", "rank", "count", "ratio", "flag", "missing"}
	// literals cover: plain numbers, negative, float, bool words (which do
	// NOT parse as numbers, forcing string comparison), and text
	literals := []string{"0", "8", "-3", "2.5", "42", "true", "false", "main", "inner", "10", ""}

	for _, a := range attrs {
		for _, op := range ops {
			for _, lit := range literals {
				for _, neg := range []bool{false, true} {
					c := calql.Condition{Attr: a, Op: op, Value: lit, Negate: neg}
					// fresh compiled form per condition (resolution caches)
					cc := compiledCond{cond: c, id: attr.InvalidID}
					if lv, err := attr.ParseAs(lit, attr.Float); err == nil {
						cc.numLit, cc.numOK = lv, true
					}
					for ri, rec := range records {
						want := EvalCondition(c, rec)
						got := cc.eval(rec, reg)
						if got != want {
							t.Errorf("cond %v record %d: compiled=%v reference=%v",
								c, ri, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCompiledCondLateAttribute checks lazy handle resolution: the WHERE
// attribute is registered only after the engine is built (the normal case
// for file queries, where readers register attributes while streaming).
func TestCompiledCondLateAttribute(t *testing.T) {
	reg := attr.NewRegistry()
	q := calql.MustParse("AGGREGATE count WHERE region = hot GROUP BY region")
	eng, err := New(q, reg)
	if err != nil {
		t.Fatal(err)
	}
	// attribute appears after engine construction
	region := reg.MustCreate("region", attr.String, attr.Nested)
	recs := []snapshot.FlatRecord{
		{{Attr: region, Value: attr.StringV("hot")}},
		{{Attr: region, Value: attr.StringV("cold")}},
		{{Attr: region, Value: attr.StringV("hot")}},
	}
	if err := eng.ProcessAll(recs); err != nil {
		t.Fatal(err)
	}
	rows, err := eng.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1 (only region=hot)", len(rows))
	}
	if c, _ := rows[0].GetByName("aggregate.count"); c.AsInt() != 2 {
		t.Errorf("count = %v, want 2", c)
	}
}

// TestSortRowsMatchesReference cross-checks the decorate-sort-undecorate
// implementation against a straightforward per-comparison reference,
// including missing keys, descending order, and tie-breaking stability.
func TestSortRowsMatchesReference(t *testing.T) {
	fx := newFixture(t)
	var rows []snapshot.FlatRecord
	for i := 0; i < 50; i++ {
		kernel := fmt.Sprintf("k%d", i%7)
		if i%11 == 0 {
			kernel = "" // rows with the first key missing
		}
		rows = append(rows, fx.rec(kernel, "", int64(i%5), int64(100-i)))
	}
	keys := []calql.OrderItem{
		{Label: "kernel"},
		{Label: "time.duration", Descending: true},
	}

	got := append([]snapshot.FlatRecord(nil), rows...)
	sortRows(got, keys)

	want := append([]snapshot.FlatRecord(nil), rows...)
	referenceSortRows(want, keys)

	for i := range want {
		if got[i].String() != want[i].String() {
			t.Errorf("row %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

// referenceSortRows is the pre-optimization implementation, kept as the
// behavioural oracle for sortRows.
func referenceSortRows(rows []snapshot.FlatRecord, keys []calql.OrderItem) {
	stableSort(rows, func(i, j int) bool {
		for _, k := range keys {
			vi, oki := rows[i].GetByName(k.Label)
			vj, okj := rows[j].GetByName(k.Label)
			var cmp int
			switch {
			case !oki && !okj:
				cmp = 0
			case !oki:
				cmp = -1
			case !okj:
				cmp = 1
			default:
				cmp = attr.Compare(vi, vj)
			}
			if k.Descending {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
}

// stableSort is an insertion sort — trivially stable, good enough for an
// oracle over small inputs.
func stableSort(rows []snapshot.FlatRecord, less func(i, j int) bool) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && less(j, j-1); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

// EvalCondition evaluates one predicate over a record by interpreting it:
// label-based lookup, literal parsed per call. It is the reference the
// compiled conditions are checked (and benchmarked) against.
func EvalCondition(c calql.Condition, rec snapshot.FlatRecord) bool {
	v, present := rec.GetByName(c.Attr)
	var result bool
	switch c.Op {
	case calql.CondExist:
		result = present
	default:
		if !present {
			// comparisons against an absent attribute are false (and
			// not(...) of them true)
			return c.Negate
		}
		cmp := compareToLiteral(v, c.Value)
		switch c.Op {
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
	if c.Negate {
		return !result
	}
	return result
}

// compareToLiteral compares a record value against a query literal,
// numerically when the record value is numeric and the literal parses as a
// number, textually otherwise.
func compareToLiteral(v attr.Variant, lit string) int {
	switch v.Kind() {
	case attr.Int, attr.Uint, attr.Float, attr.Bool:
		if lv, err := attr.ParseAs(lit, attr.Float); err == nil {
			return attr.Compare(attr.FloatV(v.AsFloat()), lv)
		}
	}
	return attr.Compare(attr.StringV(v.String()), attr.StringV(lit))
}
