package calformat

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"caligo/internal/attr"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
)

type fixture struct {
	reg  *attr.Registry
	tree *contexttree.Tree
	fn   attr.Attribute
	iter attr.Attribute
	dur  attr.Attribute
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	reg := attr.NewRegistry()
	return &fixture{
		reg:  reg,
		tree: contexttree.New(),
		fn:   reg.MustCreate("function", attr.String, attr.Nested),
		iter: reg.MustCreate("iteration", attr.Int, 0),
		dur:  reg.MustCreate("time.duration", attr.Float, attr.AsValue|attr.Aggregatable),
	}
}

func (fx *fixture) makeRecord(path []string, iter int64, dur float64) snapshot.Record {
	var entries []attr.Entry
	for _, p := range path {
		entries = append(entries, attr.Entry{Attr: fx.fn, Value: attr.StringV(p)})
	}
	var b snapshot.Builder
	if len(entries) > 0 {
		b.AddNode(fx.tree.GetPath(contexttree.InvalidNode, entries))
	}
	if iter >= 0 {
		b.AddNode(fx.tree.GetChild(contexttree.InvalidNode, fx.iter, attr.IntV(iter)))
	}
	b.AddImmediate(fx.dur, attr.FloatV(dur))
	return b.Record()
}

func roundTrip(t *testing.T, fx *fixture, recs []snapshot.Record) []snapshot.FlatRecord {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, fx.reg, fx.tree)
	for _, r := range recs {
		if err := w.WriteRecord(r); err != nil {
			t.Fatalf("WriteRecord: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// read into a fresh registry/tree to prove stream independence
	reg2 := attr.NewRegistry()
	reg2.MustCreate("decoy", attr.Int, 0) // shift ids
	tree2 := contexttree.New()
	rd := NewReader(&buf, reg2, tree2)
	out, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	return out
}

func TestWriteReadRoundTrip(t *testing.T) {
	fx := newFixture(t)
	recs := []snapshot.Record{
		fx.makeRecord([]string{"main"}, 0, 1.5),
		fx.makeRecord([]string{"main", "foo"}, 0, 2.5),
		fx.makeRecord([]string{"main", "foo"}, 1, 3.5),
		fx.makeRecord(nil, 2, 4.5),
	}
	got := roundTrip(t, fx, recs)
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i, rec := range recs {
		want, err := rec.Unpack(fx.tree, fx.reg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].String() != want.String() {
			t.Errorf("record %d: got %s, want %s", i, got[i], want)
		}
	}
}

func TestNodeDefinitionsWrittenOnce(t *testing.T) {
	fx := newFixture(t)
	var buf bytes.Buffer
	w := NewWriter(&buf, fx.reg, fx.tree)
	r := fx.makeRecord([]string{"main", "foo"}, -1, 1)
	w.WriteRecord(r)
	w.WriteRecord(r)
	w.WriteRecord(r)
	w.Flush()
	text := buf.String()
	if n := strings.Count(text, "__rec=node"); n != 2 {
		t.Errorf("node records = %d, want 2 (main, main/foo):\n%s", n, text)
	}
	if n := strings.Count(text, "__rec=ctx"); n != 3 {
		t.Errorf("ctx records = %d, want 3", n)
	}
	if n := strings.Count(text, "__rec=attr"); n != 2 { // function + time.duration
		t.Errorf("attr records = %d, want 2:\n%s", n, text)
	}
}

func TestEscaping(t *testing.T) {
	fx := newFixture(t)
	weird := fx.reg.MustCreate("weird,attr=name", attr.String, attr.AsValue)
	var b snapshot.Builder
	b.AddImmediate(weird, attr.StringV("value,with=sep:and\\slash\nnewline"))
	b.AddImmediate(fx.dur, attr.FloatV(1))
	var buf bytes.Buffer
	w := NewWriter(&buf, fx.reg, fx.tree)
	if err := w.WriteRecord(b.Record()); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	rd := NewReader(bytes.NewReader(buf.Bytes()), attr.NewRegistry(), contexttree.New())
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v\nstream:\n%s", err, buf.String())
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	v, ok := recs[0].GetByName("weird,attr=name")
	if !ok || v.String() != "value,with=sep:and\\slash\nnewline" {
		t.Errorf("weird value = %q, %v", v.String(), ok)
	}
}

func TestWriteFlatAndGlobals(t *testing.T) {
	fx := newFixture(t)
	var buf bytes.Buffer
	w := NewWriter(&buf, fx.reg, fx.tree)
	exp := fx.reg.MustCreate("experiment", attr.String, attr.Global)
	if err := w.WriteGlobals([]attr.Entry{{Attr: exp, Value: attr.StringV("run1")}}); err != nil {
		t.Fatal(err)
	}
	flat := snapshot.FlatRecord{
		{Attr: fx.fn, Value: attr.StringV("main")},
		{Attr: fx.fn, Value: attr.StringV("foo")},
		{Attr: fx.dur, Value: attr.FloatV(7)},
	}
	if err := w.WriteFlat(flat); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	rd := NewReader(bytes.NewReader(buf.Bytes()), attr.NewRegistry(), contexttree.New())
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].String() != flat.String() {
		t.Errorf("flat round trip: %v", recs)
	}
	g := rd.Globals()
	if len(g) != 1 || g[0].Attr.Name() != "experiment" || g[0].Value.String() != "run1" {
		t.Errorf("globals = %v", g)
	}
}

func TestMultipleStreamsShareRegistry(t *testing.T) {
	// two independent streams (simulating per-process files) read into one
	// registry/tree must unify attributes
	fx1 := newFixture(t)
	fx2 := newFixture(t)
	var buf1, buf2 bytes.Buffer
	w1 := NewWriter(&buf1, fx1.reg, fx1.tree)
	w2 := NewWriter(&buf2, fx2.reg, fx2.tree)
	w1.WriteRecord(fx1.makeRecord([]string{"a"}, 0, 1))
	w2.WriteRecord(fx2.makeRecord([]string{"a"}, 0, 2))
	w1.Flush()
	w2.Flush()

	reg := attr.NewRegistry()
	tree := contexttree.New()
	r1, _ := NewReader(&buf1, reg, tree).ReadAll()
	r2, _ := NewReader(&buf2, reg, tree).ReadAll()
	if r1[0][0].Attr.ID() != r2[0][0].Attr.ID() {
		t.Error("same attribute from two streams got different ids")
	}
	if a, ok := reg.Get(3); ok { // function, iteration, time.duration
		t.Errorf("registry has a fourth attribute %s, want 3", a.Name())
	}
}

func TestReaderErrors(t *testing.T) {
	cases := map[string]string{
		"no rec field":        "id=1,attr=2\n",
		"bad attr id":         "__rec=attr,id=x,name=a,type=int\n",
		"bad attr type":       "__rec=attr,id=0,name=a,type=banana\n",
		"missing attr name":   "__rec=attr,id=0,type=int\n",
		"bad prop":            "__rec=attr,id=0,name=a,type=int,prop=zzz\n",
		"node before attr":    "__rec=node,id=0,attr=5,data=x,parent=\n",
		"bad node id":         "__rec=attr,id=0,name=a,type=string\n__rec=node,id=z,attr=0,data=x,parent=\n",
		"bad parent":          "__rec=attr,id=0,name=a,type=string\n__rec=node,id=0,attr=0,data=x,parent=9\n",
		"ctx undefined node":  "__rec=ctx,ref=3\n",
		"ctx undefined attr":  "__rec=ctx,attr=9,data=1\n",
		"ctx length mismatch": "__rec=attr,id=0,name=a,type=int\n__rec=ctx,attr=0,data=1:2\n",
		"ctx bad value":       "__rec=attr,id=0,name=a,type=int\n__rec=ctx,attr=0,data=xyz\n",
		"ctx empty":           "__rec=ctx\n",
		"field without =":     "__rec=ctx,bogus\n",
		"node bad data type":  "__rec=attr,id=0,name=a,type=int\n__rec=node,id=0,attr=0,data=xx,parent=\n",
		"globals bad attr":    "__rec=globals,attr=x,data=1\n",
	}
	for name, in := range cases {
		rd := NewReader(strings.NewReader(in), attr.NewRegistry(), contexttree.New())
		_, err := rd.ReadAll()
		if err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReaderSkipsUnknownRecordsAndBlankLines(t *testing.T) {
	in := "\n__rec=future-thing,x=1\n__rec=attr,id=0,name=a,type=int,prop=\n__rec=ctx,attr=0,data=5\n\n"
	rd := NewReader(strings.NewReader(in), attr.NewRegistry(), contexttree.New())
	recs, err := rd.ReadAll()
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
	if v, _ := recs[0].GetByName("a"); v.AsInt() != 5 {
		t.Errorf("value = %v", v)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(paths []uint8, iters []int8, durs []uint16) bool {
		fx := &fixture{
			reg:  attr.NewRegistry(),
			tree: contexttree.New(),
		}
		fx.fn = fx.reg.MustCreate("function", attr.String, attr.Nested)
		fx.iter = fx.reg.MustCreate("iteration", attr.Int, 0)
		fx.dur = fx.reg.MustCreate("time.duration", attr.Float, attr.AsValue)

		n := len(paths)
		if n > 20 {
			n = 20
		}
		var recs []snapshot.Record
		rng := rand.New(rand.NewSource(int64(n)))
		names := []string{"main", "foo", "bar", "baz"}
		for i := 0; i < n; i++ {
			depth := int(paths[i]%4) + 1
			var path []string
			for d := 0; d < depth; d++ {
				path = append(path, names[rng.Intn(len(names))])
			}
			it := int64(-1)
			if i < len(iters) && iters[i] >= 0 {
				it = int64(iters[i])
			}
			d := 1.0
			if i < len(durs) {
				d = float64(durs[i]) / 4
			}
			recs = append(recs, fx.makeRecord(path, it, d))
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, fx.reg, fx.tree)
		for _, r := range recs {
			if err := w.WriteRecord(r); err != nil {
				return false
			}
		}
		w.Flush()
		rd := NewReader(&buf, attr.NewRegistry(), contexttree.New())
		got, err := rd.ReadAll()
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i, rec := range recs {
			want, err := rec.Unpack(fx.tree, fx.reg)
			if err != nil || got[i].String() != want.String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReaderEOFIsClean(t *testing.T) {
	rd := NewReader(strings.NewReader(""), attr.NewRegistry(), contexttree.New())
	if _, err := rd.Next(); err != io.EOF {
		t.Errorf("Next on empty = %v, want io.EOF", err)
	}
}

func TestSplitList(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a:b:c", []string{"a", "b", "c"}},
		{`a\:b:c`, []string{"a:b", "c"}},
		{"a::b", []string{"a", "", "b"}},
	}
	for _, tt := range tests {
		got := splitList(tt.in)
		if len(got) != len(tt.want) {
			t.Errorf("splitList(%q) = %v, want %v", tt.in, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("splitList(%q)[%d] = %q, want %q", tt.in, i, got[i], tt.want[i])
			}
		}
	}
}
