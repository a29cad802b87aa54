package query

import (
	"fmt"
	"testing"

	"caligo/internal/attr"
	"caligo/internal/calql"
	"caligo/internal/snapshot"
)

// benchFixtureRecords builds a record mix typical of a profiling dataset —
// nested kernel paths, MPI ranks, integer durations — against a fresh registry.
func benchFixtureRecords(b *testing.B, n int) (*attr.Registry, []snapshot.FlatRecord) {
	b.Helper()
	reg := attr.NewRegistry()
	kernel := reg.MustCreate("kernel", attr.String, attr.Nested)
	rank := reg.MustCreate("mpi.rank", attr.Int, 0)
	dur := reg.MustCreate("time.duration", attr.Int, attr.AsValue|attr.Aggregatable)
	recs := make([]snapshot.FlatRecord, n)
	for i := 0; i < n; i++ {
		recs[i] = snapshot.FlatRecord{
			{Attr: kernel, Value: attr.StringV(fmt.Sprintf("kernel.%d", i%13))},
			{Attr: rank, Value: attr.IntV(int64(i % 8))},
			{Attr: dur, Value: attr.IntV(int64(50 + i%1000))},
		}
	}
	return reg, recs
}

// BenchmarkWhereCompiled measures the per-record WHERE cost through the
// engine's precompiled conditions (id-based lookup, literal parsed once).
func BenchmarkWhereCompiled(b *testing.B) {
	reg, recs := benchFixtureRecords(b, 1024)
	q := calql.MustParse("AGGREGATE count WHERE mpi.rank < 6 WHERE kernel GROUP BY kernel")
	eng, err := New(q, reg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eng.where.Match(recs[i%len(recs)]) {
			_ = i
		}
	}
}

// BenchmarkWhereEvalCondition measures the same conditions through the
// uncompiled reference path (label-based lookup, literal parsed per call) —
// the before side of the precompiled-WHERE optimization.
func BenchmarkWhereEvalCondition(b *testing.B) {
	_, recs := benchFixtureRecords(b, 1024)
	q := calql.MustParse("AGGREGATE count WHERE mpi.rank < 6 WHERE kernel GROUP BY kernel")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := recs[i%len(recs)]
		for _, c := range q.Where {
			if !EvalCondition(c, rec) {
				break
			}
		}
	}
}

// BenchmarkSortRows measures ORDER BY over result-row sets of realistic
// sizes with a two-key sort (string ascending, int descending).
func BenchmarkSortRows(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			_, recs := benchFixtureRecords(b, n)
			keys := []calql.OrderItem{
				{Label: "kernel"},
				{Label: "time.duration", Descending: true},
			}
			scratch := make([]snapshot.FlatRecord, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(scratch, recs)
				sortRows(scratch, keys)
			}
		})
	}
}
