package calformat

// Tests for the byte-oriented decoder's perf-facing contracts: exact byte
// accounting, record reuse, string interning, and the steady-state
// allocation budget. Semantic equivalence with the legacy decoder is
// covered by FuzzDecodeDiff in fuzz_test.go.

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"unsafe"

	"caligo/internal/attr"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
	"caligo/internal/testutil"
)

// TestBytesReadExact: caligo.calformat.bytes.read must equal the exact
// input size — including newlines, carriage returns, blank lines, and a
// final line with no trailing newline. (The legacy reader over-counted a
// newline on the last line and miscounted CRLF endings.)
func TestBytesReadExact(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	inputs := []string{
		"__rec=attr,id=0,name=a,type=int,prop=\n__rec=ctx,attr=0,data=5\n",
		// no trailing newline on the final line
		"__rec=attr,id=0,name=a,type=int,prop=\n__rec=ctx,attr=0,data=5",
		// CRLF line endings
		"__rec=attr,id=0,name=a,type=int,prop=\r\n__rec=ctx,attr=0,data=5\r\n",
		// stacked carriage returns, blank lines, final '\r' at EOF
		"__rec=attr,id=0,name=a,type=int,prop=\r\r\n\n\r\n__rec=ctx,attr=0,data=5\r",
		"",
		"\n\r\n\n",
	}
	for _, in := range inputs {
		rd := NewReader(strings.NewReader(in), attr.NewRegistry(), contexttree.New())
		before := telBytesRead.Value()
		if _, err := rd.ReadAll(); err != nil {
			t.Fatalf("input %q: %v", in, err)
		}
		if got := telBytesRead.Value() - before; got != uint64(len(in)) {
			t.Errorf("input %q: bytes.read = %d, want %d", in, got, len(in))
		}
	}
}

// TestNextIntoReuse: a NextInto record is valid until the next call;
// retaining it across calls requires Clone.
func TestNextIntoReuse(t *testing.T) {
	in := "__rec=attr,id=0,name=a,type=int,prop=\n" +
		"__rec=ctx,attr=0,data=1\n" +
		"__rec=ctx,attr=0,data=2\n"
	rd := NewReader(strings.NewReader(in), attr.NewRegistry(), contexttree.New())
	var rec snapshot.FlatRecord
	if err := rd.NextInto(&rec); err != nil {
		t.Fatal(err)
	}
	first := rec.Clone()
	if err := rd.NextInto(&rec); err != nil {
		t.Fatal(err)
	}
	if got := rec[0].Value.AsInt(); got != 2 {
		t.Fatalf("second record value = %d, want 2", got)
	}
	if got := first[0].Value.AsInt(); got != 1 {
		t.Fatalf("cloned first record value = %d, want 1", got)
	}
	if err := rd.NextInto(&rec); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	if len(rec) != 0 {
		t.Fatalf("record not reset on EOF: %v", rec)
	}
}

// TestStringInterning: repeated string values share one backing array —
// within a stream and across readers on the same registry.
func TestStringInterning(t *testing.T) {
	reg := attr.NewRegistry()
	in := "__rec=attr,id=0,name=s,type=string,prop=asvalue\n" +
		"__rec=ctx,attr=0,data=hello\n" +
		"__rec=ctx,attr=0,data=hello\n"
	var ptrs []*byte
	for i := 0; i < 2; i++ {
		rd := NewReader(strings.NewReader(in), reg, contexttree.New())
		recs, err := rd.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			s := rec[0].Value.String()
			if s != "hello" {
				t.Fatalf("value = %q, want hello", s)
			}
			ptrs = append(ptrs, unsafe.StringData(s))
		}
	}
	for i, p := range ptrs {
		if p != ptrs[0] {
			t.Fatalf("string value %d has a distinct backing array (not interned)", i)
		}
	}
}

// decodeAllocInput builds a stream with a definition prologue and nrec
// identical-shape ctx records (nested string path + float metric), the
// steady-state shape of a profiling dataset.
func decodeAllocInput(nrec int) string {
	var sb strings.Builder
	sb.WriteString("__rec=attr,id=0,name=function,type=string,prop=nested\n")
	sb.WriteString("__rec=attr,id=1,name=time.duration,type=double,prop=asvalue\n")
	sb.WriteString("__rec=attr,id=2,name=label,type=string,prop=asvalue\n")
	sb.WriteString("__rec=node,id=0,attr=0,data=main,parent=\n")
	sb.WriteString("__rec=node,id=1,attr=0,data=work,parent=0\n")
	for i := 0; i < nrec; i++ {
		sb.WriteString("__rec=ctx,ref=1,attr=1:2,data=0.5:step\\=one\n")
	}
	return sb.String()
}

// TestNextIntoAllocBudget pins the steady-state decode loop to zero
// allocations per record for a stream that reuses one node: spans,
// scratch and intern table are all warm after the first few records.
// (TestWideTreeAllocBudget covers the stream that defines a node per
// record.)
func TestNextIntoAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race instrumentation")
	}
	rd := NewReader(strings.NewReader(decodeAllocInput(600)), attr.NewRegistry(), contexttree.New())
	var rec snapshot.FlatRecord
	for i := 0; i < 100; i++ { // warm up caches and buffer capacities
		if err := rd.NextInto(&rec); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(400, func() {
		if err := rd.NextInto(&rec); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state NextInto = %.2f allocs/record, want 0", avg)
	}
}

// TestNextAllocBudget pins the compatibility Next API, which must only
// pay for the fresh record slice it hands out.
func TestNextAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race instrumentation")
	}
	rd := NewReader(strings.NewReader(decodeAllocInput(600)), attr.NewRegistry(), contexttree.New())
	for i := 0; i < 100; i++ {
		if _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(400, func() {
		if _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
	})
	// growing the 4-entry record costs a few slice doublings
	if avg > 3 {
		t.Fatalf("steady-state Next = %.2f allocs/record, want <= 3", avg)
	}
}

// wideTreeInput builds the shape of an aggregated profile, where every
// key occurs once: each ctx record references a depth-3 node defined on
// the line before it.
func wideTreeInput(nrec int) string {
	var sb strings.Builder
	sb.WriteString("__rec=attr,id=0,name=function,type=string,prop=nested\n")
	sb.WriteString("__rec=attr,id=1,name=iteration,type=int,prop=\n")
	sb.WriteString("__rec=attr,id=2,name=time.duration,type=double,prop=asvalue\n")
	sb.WriteString("__rec=node,id=0,attr=0,data=main,parent=\n")
	sb.WriteString("__rec=node,id=1,attr=0,data=work,parent=0\n")
	for i := 0; i < nrec; i++ {
		fmt.Fprintf(&sb, "__rec=node,id=%d,attr=1,data=%d,parent=1\n", i+2, i)
		fmt.Fprintf(&sb, "__rec=ctx,ref=%d,attr=2,data=0.5\n", i+2)
	}
	return sb.String()
}

// TestWideTreeAllocBudget pins the whole decode of a wide-tree stream —
// definition lines, arena and id-table growth, and reader set-up all
// included — to a tenth of an allocation per record when no tree sink is
// attached (the query path).
func TestWideTreeAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race instrumentation")
	}
	const nrec = 2000
	in := wideTreeInput(nrec)
	reg := attr.NewRegistry()
	var rec snapshot.FlatRecord
	decode := func() {
		rd := NewReader(strings.NewReader(in), reg, nil)
		n := 0
		for ; ; n++ {
			err := rd.NextInto(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rec) != 4 {
				t.Fatalf("record %d has %d entries, want 4", n, len(rec))
			}
		}
		if n != nrec {
			t.Fatalf("decoded %d records, want %d", n, nrec)
		}
	}
	decode() // attribute names enter the registry once
	if avg := testing.AllocsPerRun(5, decode) / nrec; avg > 0.1 {
		t.Fatalf("wide-tree decode = %.3f allocs/record, want <= 0.1", avg)
	}
}

// inOrder renders a record entry by entry (FlatRecord.String sorts).
func inOrder(rec snapshot.FlatRecord) string {
	parts := make([]string, len(rec))
	for i, e := range rec {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

const nodeTablePrologue = "__rec=attr,id=0,name=function,type=string,prop=nested\n" +
	"__rec=attr,id=1,name=count,type=int,prop=asvalue\n"

// nodeTableCases exercise the Reader's stream-local node table. They are
// also FuzzDecodeDiff seeds.
var nodeTableCases = []struct {
	name  string
	in    string
	want  []string // records, entries in order
	err   string   // error after the last wanted record ("" = io.EOF)
	nodes int      // size of the tree sink afterwards
}{
	{
		// An appended stream renumbers nodes (and attributes) from 0. A
		// child defined before the redefinition keeps the parent it
		// named; refs and children after it see the new node.
		name: "appended stream redefines ids",
		in: nodeTablePrologue +
			"__rec=node,id=0,attr=0,data=main,parent=\n" +
			"__rec=node,id=1,attr=0,data=foo,parent=0\n" +
			"__rec=ctx,ref=1,attr=1,data=1\n" +
			"__rec=attr,id=0,name=count,type=int,prop=asvalue\n" +
			"__rec=attr,id=1,name=region,type=string,prop=nested\n" +
			"__rec=node,id=0,attr=1,data=init,parent=\n" +
			"__rec=ctx,ref=1,attr=0,data=2\n" +
			"__rec=ctx,ref=0,attr=0,data=3\n" +
			"__rec=node,id=2,attr=1,data=io,parent=0\n" +
			"__rec=ctx,ref=2:1,attr=0,data=4\n",
		want: []string{
			"function=main function=foo count=1",
			"function=main function=foo count=2",
			"region=init count=3",
			"region=init region=io function=main function=foo count=4",
		},
		nodes: 4,
	},
	{
		name: "redefinition with the same content merges in the sink",
		in: nodeTablePrologue +
			"__rec=node,id=0,attr=0,data=main,parent=\n" +
			"__rec=node,id=0,attr=0,data=main,parent=\n" +
			"__rec=node,id=1,attr=0,data=main,parent=0\n" +
			"__rec=ctx,ref=1\n",
		want:  []string{"function=main function=main"},
		nodes: 2,
	},
	{
		name: "sparse, huge and negative node ids",
		in: nodeTablePrologue +
			"__rec=node,id=1099511627776,attr=0,data=far,parent=\n" +
			"__rec=node,id=-7,attr=0,data=neg,parent=1099511627776\n" +
			"__rec=node,id=5000,attr=0,data=sparse,parent=-7\n" +
			"__rec=node,id=3,attr=0,data=near,parent=5000\n" +
			"__rec=ctx,ref=3\n" +
			"__rec=ctx,ref=-7:1099511627776,attr=1,data=9\n" +
			"__rec=ctx,ref=4999\n",
		want: []string{
			"function=far function=neg function=sparse function=near",
			"function=far function=neg function=far count=9",
		},
		err:   "calformat: line 9: ctx record: undefined node 4999",
		nodes: 4,
	},
	{
		// id 200 lands in the far map while the arena is empty; once the
		// dense slice has grown past it (id 300), it must still resolve,
		// and a redefinition must replace it.
		name: "far id overtaken by the dense range",
		in: func() string {
			var sb strings.Builder
			sb.WriteString(nodeTablePrologue)
			sb.WriteString("__rec=node,id=200,attr=0,data=early,parent=\n")
			for i := 0; i < 150; i++ {
				fmt.Fprintf(&sb, "__rec=node,id=%d,attr=0,data=n%d,parent=\n", i, i)
			}
			sb.WriteString("__rec=node,id=300,attr=0,data=beyond,parent=\n")
			sb.WriteString("__rec=ctx,ref=200\n")
			sb.WriteString("__rec=node,id=200,attr=0,data=late,parent=\n")
			sb.WriteString("__rec=ctx,ref=200\n")
			return sb.String()
		}(),
		want:  []string{"function=early", "function=late"},
		nodes: 153,
	},
	{
		name: "undefined parent",
		in: nodeTablePrologue +
			"__rec=node,id=0,attr=0,data=main,parent=\n" +
			"\n" +
			"__rec=node,id=1,attr=0,data=foo,parent=2\n",
		err:   "calformat: line 5: node record: undefined parent node 2",
		nodes: 1,
	},
	{
		name: "node that names itself as parent",
		in: nodeTablePrologue +
			"__rec=node,id=0,attr=0,data=main,parent=0\n",
		err: "calformat: line 3: node record: undefined parent node 0",
	},
	{
		name: "undefined ref after a valid one",
		in: nodeTablePrologue +
			"__rec=node,id=0,attr=0,data=main,parent=\n" +
			"__rec=ctx,ref=0:1\n",
		err:   "calformat: line 4: ctx record: undefined node 1",
		nodes: 1,
	},
}

// TestNodeTable: each case decodes to the same records, error and tree
// size through the Reader with a tree sink, the Reader without one, and
// the legacy decoder — whose tree is what the Reader's used to be, so
// cali-stat's node count and the index's TreeNodes cannot drift.
func TestNodeTable(t *testing.T) {
	type next interface {
		Next() (snapshot.FlatRecord, error)
	}
	for _, c := range nodeTableCases {
		t.Run(c.name, func(t *testing.T) {
			sink, oracleTree := contexttree.New(), contexttree.New()
			readers := []struct {
				name string
				rd   next
				tree *contexttree.Tree
			}{
				{"tree sink", NewReader(strings.NewReader(c.in), attr.NewRegistry(), sink), sink},
				{"no tree", NewReader(strings.NewReader(c.in), attr.NewRegistry(), nil), nil},
				{"legacy", newOracleReader(strings.NewReader(c.in), attr.NewRegistry(), oracleTree), oracleTree},
			}
			for _, r := range readers {
				for i, want := range c.want {
					rec, err := r.rd.Next()
					if err != nil {
						t.Fatalf("%s: record %d: %v", r.name, i, err)
					}
					if got := inOrder(rec); got != want {
						t.Errorf("%s: record %d = %s, want %s", r.name, i, got, want)
					}
				}
				_, err := r.rd.Next()
				if c.err == "" && err != io.EOF {
					t.Errorf("%s: after the last record: %v, want io.EOF", r.name, err)
				}
				if c.err != "" && (err == nil || err.Error() != c.err) {
					t.Errorf("%s: error = %v, want %s", r.name, err, c.err)
				}
				if r.tree != nil && r.tree.Len() != c.nodes {
					t.Errorf("%s: tree has %d nodes, want %d", r.name, r.tree.Len(), c.nodes)
				}
			}
		})
	}
}

// TestProjectedAwayRecord: projection drops entries, never records — a
// record with nothing left is returned empty (AGGREGATE count counts
// it), and projected path nodes vanish from the middle of a path too.
func TestProjectedAwayRecord(t *testing.T) {
	in := "__rec=attr,id=0,name=function,type=string,prop=nested\n" +
		"__rec=attr,id=1,name=loop,type=string,prop=nested\n" +
		"__rec=attr,id=2,name=count,type=int,prop=asvalue\n" +
		"__rec=node,id=0,attr=0,data=main,parent=\n" +
		"__rec=node,id=1,attr=1,data=outer,parent=0\n" +
		"__rec=node,id=2,attr=0,data=foo,parent=1\n" +
		"__rec=ctx,ref=1,attr=2,data=1\n" +
		"__rec=ctx,ref=2,attr=2,data=2\n" +
		"__rec=ctx,ref=2:0\n" +
		"__rec=ctx\n"
	for _, c := range []struct {
		keep map[string]bool
		want []string
	}{
		{nil, []string{"function=main loop=outer count=1", "function=main loop=outer function=foo count=2",
			"function=main loop=outer function=foo function=main"}},
		{map[string]bool{"function": true}, []string{"function=main", "function=main function=foo",
			"function=main function=foo function=main"}},
		{map[string]bool{"loop": true, "count": true}, []string{"loop=outer count=1", "loop=outer count=2", "loop=outer"}},
		{map[string]bool{"other": true}, []string{"", "", ""}},
	} {
		for _, tree := range []*contexttree.Tree{nil, contexttree.New()} {
			rd := NewReader(strings.NewReader(in), attr.NewRegistry(), tree)
			rd.SetProjection(c.keep)
			var rec snapshot.FlatRecord
			for i, want := range c.want {
				if err := rd.NextInto(&rec); err != nil {
					t.Fatalf("keep %v: record %d: %v", c.keep, i, err)
				}
				if got := inOrder(rec); got != want {
					t.Errorf("keep %v: record %d = %q, want %q", c.keep, i, got, want)
				}
			}
			// a record that was written empty is still an error
			err := rd.NextInto(&rec)
			if err == nil || err.Error() != "calformat: line 10: ctx record: empty record" {
				t.Errorf("keep %v: empty ctx line: %v", c.keep, err)
			}
			if tree != nil && tree.Len() != 3 {
				t.Errorf("keep %v: tree has %d nodes, want 3 (projection must not thin the sink)", c.keep, tree.Len())
			}
		}
	}
}
