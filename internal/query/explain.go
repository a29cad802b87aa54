package query

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"caligo/internal/calql"
	"caligo/internal/trace"
)

// EXPLAIN support: a query's resolved execution plan as a list of phase
// nodes matching the phase names of the spans the engines emit, so EXPLAIN
// ANALYZE can attribute a run's profile (trace.Profile) to plan nodes.

// PlanOptions describes the execution environment a plan is built for.
type PlanOptions struct {
	// Inputs is the number of input files (0 when reading a stream).
	Inputs int
	// Ranks is the emulated MPI rank count; 0 means serial execution.
	Ranks int
	// Fanin is the reduction-tree arity (parallel execution only).
	Fanin int
	// Jobs is the sharded-execution worker count; values > 1 select the
	// in-process multi-core path (ignored when Ranks > 0).
	Jobs int
	// UseIndex marks index-aware scanning (sidecar block indexes consulted
	// for file/block pruning and projection pushdown).
	UseIndex bool
	// Cache marks per-file aggregate-state caching; CacheDir is its store
	// directory (shown in the plan).
	Cache    bool
	CacheDir string
}

// PlanStat is one measured quantity attributed to a plan node, summed
// over the node's spans (record counts, byte counts, ...).
type PlanStat = trace.Stat

// PlanNode is one phase of the resolved execution plan.
type PlanNode struct {
	// Phase is the pipeline phase name: the profile phase of the spans
	// named "<layer>.<Phase>", which Annotate attributes to this node.
	Phase string
	// Detail describes what the phase resolved to for this query.
	Detail string

	// Annotation from EXPLAIN ANALYZE (zero until Annotate runs):
	Spans   int        // matching spans
	TotalNS int64      // summed wall time
	Stats   []PlanStat // summed integer span args, sorted by name
}

// Plan is a query's resolved execution plan.
type Plan struct {
	// Analyze marks an EXPLAIN ANALYZE plan (annotations are meaningful).
	Analyze bool
	// Query is the canonical form of the query being explained.
	Query string
	// Execution describes the environment ("serial", "parallel (...)").
	Execution string
	// Nodes lists the phases in execution order.
	Nodes []PlanNode
}

// BuildPlan resolves the execution plan of a query: which pipeline phases
// run, and what each does for this query. The inner (unwrapped) query is
// used; the caller decides serial vs parallel execution via opts.
func BuildPlan(q *calql.Query, opts PlanOptions) (*Plan, error) {
	inner := q.WithoutExplain()
	if _, err := inner.Scheme(); err != nil {
		return nil, err
	}
	p := &Plan{
		Analyze:   q.Explain == calql.ExplainAnalyze,
		Query:     inner.String(),
		Execution: "serial",
	}
	sharded := opts.Ranks <= 0 && opts.Jobs > 1
	if opts.Ranks > 0 {
		fanin := opts.Fanin
		if fanin < 2 {
			fanin = 2
		}
		p.Execution = fmt.Sprintf("parallel (%d ranks, fan-in %d reduction tree)", opts.Ranks, fanin)
	} else if sharded {
		p.Execution = fmt.Sprintf("sharded (%d parallel workers, pairwise DB merge)", opts.Jobs)
	}

	if opts.UseIndex {
		sp := NewScanPlan(inner, ScanOptions{UseIndex: true})
		var parts []string
		if conds := sp.PrunableConds(); len(conds) > 0 {
			parts = append(parts, "prune blocks on "+strings.Join(conds, ", "))
		} else {
			parts = append(parts, "no prunable conditions")
		}
		if proj := sp.Projection(); proj != nil {
			parts = append(parts, fmt.Sprintf("decode %d attrs: %s", len(proj), strings.Join(proj, ", ")))
		} else {
			parts = append(parts, "full decode")
		}
		p.add("index", strings.Join(parts, "; "))
	} else {
		p.add("index", "disabled (full scan)")
	}

	if opts.Cache {
		if !inner.HasAggregation() {
			p.add("cache", "inactive (non-aggregating query)")
		} else {
			detail := "per-file aggregate state"
			if opts.CacheDir != "" {
				detail += " in " + opts.CacheDir
			}
			detail += "; hit merges cached state, append scans the tail only"
			p.add("cache", detail)
		}
	}

	switch {
	case sharded:
		p.add("shard", fmt.Sprintf("%d workers read+aggregate %d input files round-robin",
			opts.Jobs, opts.Inputs))
	case opts.Inputs == 1:
		p.add("read", "1 input file")
	case opts.Inputs > 1:
		p.add("read", fmt.Sprintf("%d input files", opts.Inputs))
	default:
		p.add("read", "input stream")
	}
	if len(inner.Lets) > 0 {
		defs := make([]string, len(inner.Lets))
		for i, l := range inner.Lets {
			defs[i] = l.String()
		}
		p.add("let", strings.Join(defs, ", "))
	}
	if len(inner.Where) > 0 {
		conds := make([]string, len(inner.Where))
		for i, c := range inner.Where {
			conds[i] = c.String()
		}
		p.add("where", strings.Join(conds, " AND "))
	}
	if inner.HasAggregation() {
		var ops []string
		for _, o := range inner.Ops {
			ops = append(ops, o.String())
		}
		detail := strings.Join(ops, ", ")
		if len(inner.GroupBy) > 0 {
			detail += " GROUP BY " + strings.Join(inner.GroupBy, ", ")
		}
		p.add("aggregate", detail)
	} else {
		p.add("aggregate", "collect matching records (no aggregation)")
	}
	if sharded && inner.HasAggregation() {
		p.add("merge", "fold shard databases pairwise into shard 0")
	}
	if opts.Ranks > 0 {
		p.add("reduce", "merge per-rank partial results at rank 0")
	} else if inner.HasAggregation() {
		p.add("reduce", "flush aggregation database to result rows")
	} else {
		p.add("reduce", "pass collected rows through")
	}
	var post []string
	for _, po := range inner.PostOps {
		post = append(post, po.String())
	}
	if len(inner.OrderBy) > 0 {
		items := make([]string, len(inner.OrderBy))
		for i, o := range inner.OrderBy {
			items[i] = o.String()
		}
		post = append(post, "ORDER BY "+strings.Join(items, ", "))
	}
	if inner.Limit >= 0 {
		post = append(post, fmt.Sprintf("LIMIT %d", inner.Limit))
	}
	if len(post) == 0 {
		post = append(post, "none")
	}
	p.add("postprocess", strings.Join(post, "; "))
	kind := inner.Format.Kind
	if kind == "" {
		kind = "table"
	}
	p.add("format", kind)
	return p, nil
}

func (p *Plan) add(phase, detail string) {
	p.Nodes = append(p.Nodes, PlanNode{Phase: phase, Detail: detail})
}

// Annotate attributes a run's measured phases (trace.Profile.Phases) to
// the plan nodes of the same name — query.read and pquery.read spans both
// land on the read node: span count, summed wall time, and every summed
// integer span argument as a stat, sorted by name. Phases no node names
// (mpi.send, the whole-run pquery.run) are not shown.
func (p *Plan) Annotate(phases []trace.Phase) {
	for i := range p.Nodes {
		node := &p.Nodes[i]
		for _, ph := range phases {
			if ph.Name != node.Phase {
				continue
			}
			node.Spans, node.TotalNS = ph.Spans, ph.NS
			node.Stats = slices.Clone(ph.Stats)
			slices.SortFunc(node.Stats, func(a, b PlanStat) int { return strings.Compare(a.Name, b.Name) })
		}
	}
}

// Write renders the plan as text: the query, the execution mode, and one
// line per phase — with measured time and stats when the plan is analyzed.
func (p *Plan) Write(w io.Writer) error {
	head := "EXPLAIN"
	if p.Analyze {
		head = "EXPLAIN ANALYZE"
	}
	if _, err := fmt.Fprintf(w, "%s\nquery:     %s\nexecution: %s\nplan:\n", head, p.Query, p.Execution); err != nil {
		return err
	}
	for _, n := range p.Nodes {
		if _, err := fmt.Fprintf(w, "  -> %-12s %s\n", n.Phase, n.Detail); err != nil {
			return err
		}
		if !p.Analyze {
			continue
		}
		line := fmt.Sprintf("spans=%d time=%v", n.Spans, time.Duration(n.TotalNS))
		for _, s := range n.Stats {
			line += fmt.Sprintf(" %s=%d", s.Name, s.Value)
		}
		if _, err := fmt.Fprintf(w, "     %s\n", line); err != nil {
			return err
		}
	}
	return nil
}
