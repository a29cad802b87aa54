package query

import (
	"bytes"
	"strings"
	"testing"

	"caligo/internal/calql"
	"caligo/internal/trace"
)

func TestBuildPlanSerial(t *testing.T) {
	q := calql.MustParse("EXPLAIN LET ms = scale(time.duration, 0.001) " +
		"AGGREGATE count, sum(ms) WHERE kernel=advec GROUP BY function " +
		"ORDER BY count DESC FORMAT csv LIMIT 10")
	p, err := BuildPlan(q, PlanOptions{Inputs: 3, UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Analyze {
		t.Error("EXPLAIN (without ANALYZE) built an analyzed plan")
	}
	if strings.HasPrefix(p.Query, "EXPLAIN") {
		t.Errorf("plan query kept the EXPLAIN prefix: %q", p.Query)
	}
	phases := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		phases[i] = n.Phase
	}
	want := []string{"index", "read", "let", "where", "aggregate", "reduce", "postprocess", "format"}
	if strings.Join(phases, " ") != strings.Join(want, " ") {
		t.Errorf("phases = %v, want %v", phases, want)
	}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, needle := range []string{"EXPLAIN", "serial", "3 input files", "GROUP BY function", "csv", "LIMIT 10",
		"prune blocks on kernel = advec"} {
		if !strings.Contains(out, needle) {
			t.Errorf("plan output missing %q:\n%s", needle, out)
		}
	}
	if strings.Contains(out, "spans=") {
		t.Errorf("non-analyzed plan printed measurements:\n%s", out)
	}
}

func TestBuildPlanParallelAndNonAggregating(t *testing.T) {
	q := calql.MustParse("EXPLAIN ANALYZE SELECT * WHERE kernel=advec")
	p, err := BuildPlan(q, PlanOptions{Inputs: 4, Ranks: 4, Fanin: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Analyze {
		t.Error("EXPLAIN ANALYZE did not mark the plan analyzed")
	}
	if !strings.Contains(p.Execution, "4 ranks") || !strings.Contains(p.Execution, "fan-in 3") {
		t.Errorf("execution = %q, want parallel with ranks and fan-in", p.Execution)
	}
	var sawAggregate, sawReduce bool
	for _, n := range p.Nodes {
		switch n.Phase {
		case "aggregate":
			sawAggregate = true
			if !strings.Contains(n.Detail, "no aggregation") {
				t.Errorf("non-aggregating query's aggregate node: %q", n.Detail)
			}
		case "reduce":
			sawReduce = true
		}
	}
	if !sawAggregate || !sawReduce {
		t.Errorf("plan missing aggregate/reduce nodes: %+v", p.Nodes)
	}
}

func TestBuildPlanRejectsInvalidScheme(t *testing.T) {
	q := &calql.Query{Explain: calql.ExplainPlan, GroupBy: []string{"k"}, Limit: -1}
	if _, err := BuildPlan(q, PlanOptions{}); err == nil {
		t.Error("BuildPlan accepted GROUP BY without operators")
	}
}

func TestPlanAnnotate(t *testing.T) {
	q := calql.MustParse("EXPLAIN ANALYZE AGGREGATE count GROUP BY k")
	p, err := BuildPlan(q, PlanOptions{Inputs: 2, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	var prof trace.Profile
	for rank := 0; rank < 2; rank++ {
		sp := prof.Begin("pquery.read", rank)
		sp.ArgInt("records", 100)
		sp.End()
	}
	sp := prof.Begin("pquery.reduce", 0)
	sp.ArgInt("bytes", 2048)
	sp.End()
	other := prof.Begin("mpi.send", 0) // phase matches no plan node
	other.End()
	p.Annotate(prof.Phases())

	byPhase := map[string]*PlanNode{}
	for i := range p.Nodes {
		byPhase[p.Nodes[i].Phase] = &p.Nodes[i]
	}
	read := byPhase["read"]
	if read.Spans != 2 || read.TotalNS < 0 {
		t.Errorf("read node: spans=%d total=%d, want 2 spans", read.Spans, read.TotalNS)
	}
	if len(read.Stats) != 1 || read.Stats[0].Name != "records" || read.Stats[0].Value != 200 {
		t.Errorf("read stats = %+v, want records=200", read.Stats)
	}
	if red := byPhase["reduce"]; red.Spans != 1 || len(red.Stats) != 1 || red.Stats[0].Value != 2048 {
		t.Errorf("reduce node = %+v, want 1 span with bytes=2048", red)
	}

	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "records=200") {
		t.Errorf("analyzed plan output missing summed stat:\n%s", buf.String())
	}
}
