package calformat

import (
	"fmt"
	"strings"
	"testing"

	"caligo/internal/attr"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
)

// FuzzReader: the stream reader must never panic on arbitrary input —
// corrupt datasets produce errors, not crashes.
func FuzzReader(f *testing.F) {
	seeds := []string{
		"",
		"__rec=attr,id=0,name=a,type=int,prop=\n__rec=ctx,attr=0,data=5\n",
		"__rec=attr,id=1,name=function,type=string,prop=nested\n" +
			"__rec=node,id=0,attr=1,data=main,parent=\n" +
			"__rec=node,id=1,attr=1,data=foo,parent=0\n" +
			"__rec=ctx,ref=1\n",
		"__rec=globals,attr=9,data=x\n",
		"__rec=ctx,ref=1:2:3,attr=4:5,data=a:b\n",
		"__rec=attr,id=0,name=x\\,y,type=string,prop=\n__rec=ctx,attr=0,data=a\\:b\n",
		"__rec=node,id=0,attr=0,data=x,parent=99\n",
		strings.Repeat("__rec=attr,id=0,name=a,type=int,prop=\n", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		rd := NewReader(strings.NewReader(input), attr.NewRegistry(), contexttree.New())
		// must terminate without panicking; errors are fine
		_, _ = rd.ReadAll()
	})
}

// FuzzWriterReaderRoundTrip: whatever the writer emits for wild attribute
// names and values, the reader must parse back exactly.
func FuzzWriterReaderRoundTrip(f *testing.F) {
	f.Add("name", "value")
	f.Add("we,ird=name", "va\\lue:with\nnewline")
	f.Add("", "")
	f.Add("a:b", "c,d=e")
	f.Fuzz(func(t *testing.T, name, value string) {
		if name == "" {
			return // empty attribute names are rejected by the registry
		}
		reg := attr.NewRegistry()
		tree := contexttree.New()
		a, err := reg.Create(name, attr.String, attr.AsValue)
		if err != nil {
			return
		}
		var sb strings.Builder
		w := NewWriter(&sb, reg, tree)
		rec := []attr.Entry{{Attr: a, Value: attr.StringV(value)}}
		if err := w.WriteFlat(rec); err != nil {
			t.Fatalf("WriteFlat: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rd := NewReader(strings.NewReader(sb.String()), attr.NewRegistry(), contexttree.New())
		recs, err := rd.ReadAll()
		if err != nil {
			t.Fatalf("read back: %v\nstream: %q", err, sb.String())
		}
		if len(recs) != 1 {
			t.Fatalf("records = %d", len(recs))
		}
		got, ok := recs[0].GetByName(name)
		if !ok || got.String() != value {
			t.Fatalf("value round trip: got %q, want %q", got.String(), value)
		}
	})
}

// FuzzNestedPathRoundTrip: a calling-context path written through the
// node table must read back component-for-component, whatever the frame
// names contain. Seeds cover the shapes real Go symbol names take —
// generics brackets, method parentheses, pointer receivers — plus the
// separator and control characters the escaper must neutralize.
func FuzzNestedPathRoundTrip(f *testing.F) {
	f.Add("main.main", "runtime.gcBgMarkWorker", "runtime.systemstack")
	f.Add("sort.Slice[go.shape.int]", "(*bytes.Buffer).Write", "main.(*T).Method[...]")
	f.Add("pkg.func(a, b)", "weird*name", "slice[...]trailer")
	f.Add("unicode.λ", "функция", "関数名")
	f.Add("tab\there", "newline\nin\nname", "cr\rname")
	f.Add("comma,name", "equals=name", "colon:name")
	f.Add("back\\slash", "\\", "\\n")
	f.Add("", "", "")
	f.Add(" leading", "trailing ", "  ")
	f.Fuzz(func(t *testing.T, f1, f2, f3 string) {
		frames := []string{f1, f2, f3}
		reg := attr.NewRegistry()
		tree := contexttree.New()
		fn := reg.MustCreate("prof.function", attr.String, attr.Nested)
		metric := reg.MustCreate("cpu.samples", attr.Int, attr.AsValue|attr.Aggregatable)
		entries := make([]attr.Entry, len(frames))
		for i, fr := range frames {
			entries[i] = attr.Entry{Attr: fn, Value: attr.StringV(fr)}
		}
		var b snapshot.Builder
		b.AddNode(tree.GetPath(contexttree.InvalidNode, entries))
		b.AddImmediate(metric, attr.IntV(7))

		var sb strings.Builder
		w := NewWriter(&sb, reg, tree)
		if err := w.WriteRecord(b.Record()); err != nil {
			t.Fatalf("WriteRecord: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}

		reg2 := attr.NewRegistry()
		rd := NewReader(strings.NewReader(sb.String()), reg2, contexttree.New())
		recs, err := rd.ReadAll()
		if err != nil {
			t.Fatalf("read back: %v\nstream: %q", err, sb.String())
		}
		if len(recs) != 1 {
			t.Fatalf("records = %d", len(recs))
		}
		fn2, ok := reg2.Find("prof.function")
		if !ok {
			t.Fatal("prof.function not declared in stream")
		}
		got := recs[0].ValuesOf(fn2.ID())
		if len(got) != len(frames) {
			t.Fatalf("path length: got %d, want %d\nstream: %q", len(got), len(frames), sb.String())
		}
		for i, v := range got {
			if v.String() != frames[i] {
				t.Fatalf("frame %d: got %q, want %q\nstream: %q", i, v.String(), frames[i], sb.String())
			}
		}
		if v, ok := recs[0].GetByName("cpu.samples"); !ok || v.AsInt() != 7 {
			t.Fatalf("metric lost in round trip: %v %v", v, ok)
		}
	})
}

// FuzzDecodeDiff: the byte-oriented decoder must be observationally
// identical to the legacy string/map decoder (legacy_test.go) on arbitrary
// input — same records, same globals, same error at the same point.
func FuzzDecodeDiff(f *testing.F) {
	seeds := []string{
		// well-formed stream: attr + node + ctx
		"__rec=attr,id=1,name=function,type=string,prop=nested\n" +
			"__rec=node,id=0,attr=1,data=main,parent=\n" +
			"__rec=node,id=1,attr=1,data=foo,parent=0\n" +
			"__rec=ctx,ref=1\n",
		// CRLF line endings
		"__rec=attr,id=0,name=a,type=int,prop=\r\n__rec=ctx,attr=0,data=5\r\n",
		// stacked carriage returns and no final newline
		"__rec=attr,id=0,name=a,type=int,prop=\r\r\n__rec=ctx,attr=0,data=5\r",
		// escaped separators in names, values, and list elements
		"__rec=attr,id=0,name=x\\,y\\=z,type=string,prop=\n__rec=ctx,attr=0,data=a\\:b\\nc\n",
		// empty values: present-but-empty data, empty prop, empty parent
		"__rec=attr,id=0,name=s,type=string,prop=\n__rec=ctx,attr=0,data=\n",
		// unknown record kinds are skipped
		"__rec=mystery,x=1\n__rec=attr,id=0,name=a,type=int,prop=\n__rec=ctx,attr=0,data=7\n",
		// escaped record kind never matches; escaped __rec key does
		"__rec=ct\\x\n\\_\\_rec=attr,id=0,name=a,type=int,prop=\n",
		// globals records
		"__rec=attr,id=3,name=experiment,type=string,prop=global\n__rec=globals,attr=3,data=quartz\n",
		// error cases: field without '=', missing __rec, bad ids,
		// mismatched list lengths, empty record
		"justakey\n",
		"a=1\n",
		"__rec=ctx,attr=1:2,data=a\n",
		"__rec=ctx\n",
		"__rec=node,id=x,attr=0,data=1,parent=\n",
		// duplicate keys: last one wins
		"__rec=attr,id=0,id=1,name=a,type=int,prop=\n__rec=ctx,attr=1,data=2\n",
		// trailing list separator yields a trailing empty element
		"__rec=attr,id=0,name=a,type=string,prop=\n__rec=ctx,attr=0:0,data=x:\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, c := range nodeTableCases {
		f.Add(c.in)
	}
	// the Writer's canonical lines and their near misses, so mutation
	// starts on both sides of the positional/generic choice
	for _, c := range canonCases {
		f.Add(canonPrologue + c.lines)
	}
	f.Fuzz(func(t *testing.T, input string) {
		treeN, treeO := contexttree.New(), contexttree.New()
		rn := NewReader(strings.NewReader(input), attr.NewRegistry(), treeN)
		rz := NewReader(strings.NewReader(input), attr.NewRegistry(), nil) // no tree sink
		ro := newOracleReader(strings.NewReader(input), attr.NewRegistry(), treeO)
		for i := 0; ; i++ {
			recN, errN := rn.Next()
			recZ, errZ := rz.Next()
			recO, errO := ro.Next()
			if (errN == nil) != (errO == nil) {
				t.Fatalf("record %d: error divergence:\nnew:    %v\noracle: %v\ninput: %q", i, errN, errO, input)
			}
			if fmt.Sprint(errZ) != fmt.Sprint(errN) || inOrder(recZ) != inOrder(recN) {
				t.Fatalf("record %d: tree sink changes the result:\nwith:    %s, %v\nwithout: %s, %v\ninput: %q",
					i, recN, errN, recZ, errZ, input)
			}
			if errN != nil {
				if errN.Error() != errO.Error() {
					t.Fatalf("record %d: error message divergence:\nnew:    %v\noracle: %v\ninput: %q", i, errN, errO, input)
				}
				break
			}
			if inOrder(recN) != inOrder(recO) {
				t.Fatalf("record %d divergence:\nnew:    %s\noracle: %s\ninput: %q", i, recN, recO, input)
			}
		}
		// cali-stat and the indexer report the sink's size
		if treeN.Len() != treeO.Len() {
			t.Fatalf("tree nodes: new %d, oracle %d, input %q", treeN.Len(), treeO.Len(), input)
		}
		gN, gO := rn.Globals(), ro.Globals()
		if len(gN) != len(gO) {
			t.Fatalf("globals count: new %d, oracle %d, input %q", len(gN), len(gO), input)
		}
		for i := range gN {
			if gN[i].Attr.Name() != gO[i].Attr.Name() || gN[i].Value != gO[i].Value {
				t.Fatalf("globals[%d]: new %v=%v, oracle %v=%v", i,
					gN[i].Attr.Name(), gN[i].Value, gO[i].Attr.Name(), gO[i].Value)
			}
		}
	})
}
