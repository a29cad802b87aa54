package calql

import (
	"strings"
	"testing"

	"caligo/internal/core"
)

func TestParsePaperExamples(t *testing.T) {
	// every aggregation scheme that appears in the paper must parse
	examples := []string{
		"AGGREGATE count, sum(time.duration) GROUP BY function, loop.iteration",
		"AGGREGATE count, sum(time.duration) GROUP BY function",
		"AGGREGATE count GROUP BY kernel",
		"AGGREGATE sum(aggregate.count) GROUP BY kernel",
		"AGGREGATE count, sum(time.duration) GROUP BY mpi.function",
		"AGGREGATE sum(time.duration) GROUP BY kernel, mpi.function, mpi.rank",
		"AGGREGATE count, sum(time.duration)\nGROUP BY function, annotation, amr.level, \\\n kernel, iteration#mainloop, \\\n mpi.rank, mpi.function",
		"AGGREGATE sum(time.duration)\nWHERE not(mpi.function)\nGROUP BY amr.level,iteration#mainloop",
		"AGGREGATE sum(time.duration)\nWHERE not(mpi.function)\nGROUP BY amr.level,mpi.rank",
	}
	for _, ex := range examples {
		q, err := Parse(ex)
		if err != nil {
			t.Errorf("Parse(%q): %v", ex, err)
			continue
		}
		if !q.HasAggregation() {
			t.Errorf("Parse(%q): no aggregation detected", ex)
		}
		if _, err := q.Scheme(); err != nil {
			t.Errorf("Scheme(%q): %v", ex, err)
		}
	}
}

func TestParseFullQuery(t *testing.T) {
	q, err := Parse(`
		LET msec = scale(time.duration, 0.001)
		SELECT kernel, sum#msec AS time
		AGGREGATE count, sum(msec)
		WHERE not(mpi.function), mpi.rank < 8
		GROUP BY kernel
		ORDER BY sum#msec DESC, kernel
		FORMAT csv
		LIMIT 10`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Lets) != 1 || q.Lets[0].Name != "msec" || q.Lets[0].Kind != LetScale || q.Lets[0].Factor != 0.001 {
		t.Errorf("Lets = %+v", q.Lets)
	}
	if len(q.Select) != 2 || q.Select[0].Label != "kernel" ||
		q.Select[1].Label != "sum#msec" || q.Select[1].Alias != "time" {
		t.Errorf("Select = %+v", q.Select)
	}
	if len(q.Ops) != 2 || q.Ops[0].Kind != core.OpCount || q.Ops[1].Kind != core.OpSum || q.Ops[1].Target != "msec" {
		t.Errorf("Ops = %+v", q.Ops)
	}
	if len(q.Where) != 2 {
		t.Fatalf("Where = %+v", q.Where)
	}
	if q.Where[0].Attr != "mpi.function" || q.Where[0].Op != CondExist || !q.Where[0].Negate {
		t.Errorf("Where[0] = %+v", q.Where[0])
	}
	if q.Where[1].Attr != "mpi.rank" || q.Where[1].Op != CondLt || q.Where[1].Value != "8" {
		t.Errorf("Where[1] = %+v", q.Where[1])
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "kernel" {
		t.Errorf("GroupBy = %v", q.GroupBy)
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Descending || q.OrderBy[1].Descending {
		t.Errorf("OrderBy = %+v", q.OrderBy)
	}
	if q.Format.Kind != "csv" || q.Limit != 10 {
		t.Errorf("Format=%v Limit=%d", q.Format, q.Limit)
	}
}

func TestParseConditionForms(t *testing.T) {
	tests := []struct {
		in     string
		attr   string
		op     CondOp
		value  string
		negate bool
	}{
		{"WHERE kernel", "kernel", CondExist, "", false},
		{"WHERE not(kernel)", "kernel", CondExist, "", true},
		{"WHERE kernel=advec", "kernel", CondEq, "advec", false},
		{"WHERE kernel!=advec", "kernel", CondEq, "advec", true},
		{"WHERE not(kernel=advec)", "kernel", CondEq, "advec", true},
		{"WHERE not(not(kernel))", "kernel", CondExist, "", false},
		{"WHERE mpi.rank<4", "mpi.rank", CondLt, "4", false},
		{"WHERE mpi.rank<=4", "mpi.rank", CondLe, "4", false},
		{"WHERE mpi.rank>4", "mpi.rank", CondGt, "4", false},
		{"WHERE mpi.rank>=4", "mpi.rank", CondGe, "4", false},
		{`WHERE region="a b"`, "region", CondEq, "a b", false},
		{"WHERE x=-3", "x", CondEq, "-3", false},
	}
	for _, tt := range tests {
		q, err := Parse(tt.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.in, err)
			continue
		}
		if len(q.Where) != 1 {
			t.Errorf("Parse(%q): %d conditions", tt.in, len(q.Where))
			continue
		}
		c := q.Where[0]
		if c.Attr != tt.attr || c.Op != tt.op || c.Value != tt.value || c.Negate != tt.negate {
			t.Errorf("Parse(%q) = %+v, want {%s %v %q negate=%v}",
				tt.in, c, tt.attr, tt.op, tt.value, tt.negate)
		}
	}
}

func TestParseHistogram(t *testing.T) {
	q, err := Parse("AGGREGATE histogram(time.duration, 0, 1000, 20) GROUP BY kernel")
	if err != nil {
		t.Fatal(err)
	}
	op := q.Ops[0]
	if op.Kind != core.OpHistogram || op.HistMin != 0 || op.HistMax != 1000 || op.HistBins != 20 {
		t.Errorf("op = %+v", op)
	}
}

func TestParseSelectAggregations(t *testing.T) {
	q, err := Parse("SELECT kernel, count, sum(time) GROUP BY kernel")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Ops) != 2 {
		t.Fatalf("Ops = %+v", q.Ops)
	}
	if q.Select[1].Label != "aggregate.count" || q.Select[2].Label != "sum#time" {
		t.Errorf("Select = %+v", q.Select)
	}
}

func TestParseSelectStar(t *testing.T) {
	q, err := Parse("SELECT * WHERE kernel FORMAT json")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 1 || !q.Select[0].Star {
		t.Errorf("Select = %+v", q.Select)
	}
	if q.HasAggregation() {
		t.Error("pure selection query should not aggregate")
	}
}

func TestParseAliases(t *testing.T) {
	q, err := Parse("AGGREGATE sum(time.duration) AS total GROUP BY kernel")
	if err != nil {
		t.Fatal(err)
	}
	if q.Ops[0].Alias != "total" || q.Ops[0].ResultName() != "total" {
		t.Errorf("Ops[0] = %+v", q.Ops[0])
	}
}

func TestParseLetVariants(t *testing.T) {
	q, err := Parse("LET sec = scale(time.duration, 1e-6), it = truncate(iteration, 10), src = first(kernel, mpi.function)")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Lets) != 3 {
		t.Fatalf("Lets = %+v", q.Lets)
	}
	if q.Lets[1].Kind != LetTruncate || q.Lets[1].Factor != 10 {
		t.Errorf("truncate = %+v", q.Lets[1])
	}
	if q.Lets[2].Kind != LetFirst || len(q.Lets[2].Args) != 2 {
		t.Errorf("first = %+v", q.Lets[2])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                // no clauses is fine? -> actually empty parses to empty query; see below
		"FROB x",                          // unknown clause
		"AGGREGATE frobnicate(x)",         // unknown operator
		"AGGREGATE sum",                   // missing args
		"AGGREGATE sum()",                 // empty args
		"AGGREGATE count(x)",              // count takes no args
		"AGGREGATE histogram(x, 1, 2)",    // missing bins
		"AGGREGATE histogram(x, a, b, c)", // non-numeric
		"GROUP BY kernel",                 // group by without aggregate
		"GROUP kernel",                    // missing BY
		"ORDER kernel",                    // missing BY
		"AGGREGATE count GROUP BY kernel, kernel",    // duplicate key
		"WHERE not kernel",                           // NOT without parens
		"WHERE not(kernel",                           // unclosed
		"WHERE kernel=",                              // missing value
		"FORMAT nonsense",                            // unknown format
		"LIMIT x",                                    // non-numeric limit
		"LIMIT -1",                                   // negative limit
		"LET x = bogus(y)",                           // unknown let op
		"LET x = scale(y)",                           // missing factor
		"LET x = truncate(y, 0)",                     // zero step
		"LET x = scale(y, 2), x = scale(z, 3)",       // duplicate let
		"SELECT foo AGGREGATE count GROUP BY kernel", // foo not selectable
		"AGGREGATE sum(x) GROUP BY x",                // key == aggregation attr
		"WHERE a ! b",                                // stray !
		`WHERE a="unclosed`,                          // unterminated string
	}
	for _, in := range bad[1:] { // skip the empty-string case here
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
	// empty input parses to an empty query
	q, err := Parse("")
	if err != nil || q.HasAggregation() {
		t.Errorf("Parse(\"\") = %+v, %v", q, err)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse("aggregate Count, SUM(t) group by k order by k desc format TABLE")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Ops) != 2 || len(q.GroupBy) != 1 || !q.OrderBy[0].Descending || q.Format.Kind != "table" {
		t.Errorf("q = %+v", q)
	}
}

func TestParseQuotedLabels(t *testing.T) {
	q, err := Parse(`AGGREGATE sum("my weird label") GROUP BY "another label"`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Ops[0].Target != "my weird label" || q.GroupBy[0] != "another label" {
		t.Errorf("q = %+v", q)
	}
}

func TestStringRoundTrip(t *testing.T) {
	queries := []string{
		"AGGREGATE count, sum(time.duration) GROUP BY function, loop.iteration",
		"LET msec = scale(time.duration, 0.001) SELECT kernel AGGREGATE count GROUP BY kernel",
		"AGGREGATE sum(time.duration) WHERE not(mpi.function), mpi.rank>=2 GROUP BY amr.level ORDER BY amr.level DESC FORMAT csv LIMIT 5",
		"SELECT * WHERE kernel=advec-mom FORMAT json",
		"AGGREGATE histogram(x,0,100,10) GROUP BY k",
		"AGGREGATE min(x), max(x), avg(x), stddev(x), scount(x) GROUP BY k",
		"EXPLAIN SELECT * WHERE kernel=advec-mom FORMAT json",
		"EXPLAIN ANALYZE AGGREGATE count, sum(time.duration) GROUP BY function",
	}
	for _, in := range queries {
		q1, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		printed := q1.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Errorf("re-Parse(%q): %v", printed, err)
			continue
		}
		if q2.String() != printed {
			t.Errorf("round trip not a fixpoint:\n 1st: %s\n 2nd: %s", printed, q2.String())
		}
	}
}

func TestParseExplain(t *testing.T) {
	cases := []struct {
		in   string
		mode ExplainMode
	}{
		{"SELECT *", ExplainNone},
		{"EXPLAIN SELECT *", ExplainPlan},
		{"explain analyze SELECT *", ExplainAnalyze},
		{"EXPLAIN ANALYZE AGGREGATE count GROUP BY k", ExplainAnalyze},
		{"EXPLAIN", ExplainPlan}, // a bare EXPLAIN wraps the empty (pass-through) query
		{"EXPLAIN ANALYZE", ExplainAnalyze},
	}
	for _, tc := range cases {
		q, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if q.Explain != tc.mode {
			t.Errorf("Parse(%q).Explain = %v, want %v", tc.in, q.Explain, tc.mode)
		}
		if inner := q.WithoutExplain(); inner.Explain != ExplainNone {
			t.Errorf("WithoutExplain kept mode %v", inner.Explain)
		}
	}
	// "explain" is only a keyword at statement start: elsewhere it stays an
	// ordinary identifier.
	q, err := Parse("SELECT explain WHERE explain=analyze")
	if err != nil {
		t.Fatalf("explain as identifier: %v", err)
	}
	if q.Explain != ExplainNone || q.Select[0].Label != "explain" {
		t.Errorf("mid-query explain mis-parsed: %+v", q)
	}
	// ... and EXPLAIN EXPLAIN is therefore a plain parse error.
	if _, err := Parse("EXPLAIN EXPLAIN SELECT *"); err == nil {
		t.Error("EXPLAIN EXPLAIN parsed; want error")
	}
}

func TestLexerIdentifiersWithSpecialChars(t *testing.T) {
	toks, err := lex("iteration#mainloop time.duration sum#x advec-mom a/b")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"iteration#mainloop", "time.duration", "sum#x", "advec-mom", "a/b"}
	for i, w := range want {
		if toks[i].kind != tokIdent || toks[i].text != w {
			t.Errorf("tok[%d] = %v %q, want ident %q", i, toks[i].kind, toks[i].text, w)
		}
	}
}

func TestLexerNumbers(t *testing.T) {
	toks, err := lex("42 -7 2.5 1e-6 2d.kernel")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokNumber || toks[0].text != "42" {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if toks[1].kind != tokNumber || toks[1].text != "-7" {
		t.Errorf("tok1 = %+v", toks[1])
	}
	if toks[2].kind != tokNumber || toks[2].text != "2.5" {
		t.Errorf("tok2 = %+v", toks[2])
	}
	if toks[3].kind != tokNumber || toks[3].text != "1e-6" {
		t.Errorf("tok3 = %+v", toks[3])
	}
	// digit-led identifier
	if toks[4].kind != tokIdent || toks[4].text != "2d.kernel" {
		t.Errorf("tok4 = %+v", toks[4])
	}
}

func TestSchemeExtraction(t *testing.T) {
	q := MustParse("AGGREGATE count, sum(t) GROUP BY a, b")
	s, err := q.Scheme()
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "AGGREGATE count, sum(t) GROUP BY a, b" {
		t.Errorf("scheme = %q", s)
	}
	q2 := MustParse("SELECT * WHERE x")
	s2, err := q2.Scheme()
	if err != nil || s2 != nil {
		t.Errorf("non-aggregating query: scheme = %v, err = %v", s2, err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("FROB")
}

func TestConditionString(t *testing.T) {
	tests := []struct {
		c    Condition
		want string
	}{
		{Condition{Attr: "k", Op: CondExist}, "k"},
		{Condition{Attr: "k", Op: CondExist, Negate: true}, "not(k)"},
		{Condition{Attr: "k", Op: CondEq, Value: "v"}, "k=v"},
		{Condition{Attr: "k", Op: CondEq, Value: "v", Negate: true}, "k!=v"},
		{Condition{Attr: "k", Op: CondLt, Value: "3"}, "k<3"},
		{Condition{Attr: "k", Op: CondGe, Value: "3", Negate: true}, "not(k>=3)"},
		{Condition{Attr: "k", Op: CondEq, Value: "a b"}, `k="a b"`},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("Condition.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestQueryStringEmptyValueQuoting(t *testing.T) {
	q := MustParse(`WHERE k=""`)
	if q.Where[0].Value != "" {
		t.Errorf("value = %q", q.Where[0].Value)
	}
	if !strings.Contains(q.String(), `k=""`) {
		t.Errorf("String = %q", q.String())
	}
}
