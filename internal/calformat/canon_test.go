package calformat

// Tests for the positional decode of the Writer's canonical line layout
// (canonNodeLine, canonCtxLine in decode.go) and for Reader.Reset. The
// legacy decoder in legacy_test.go is the oracle throughout: a line the
// positional path takes, and a near miss it must hand to the generic
// scanner, both have to come out exactly as the oracle reads them.

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"caligo/internal/attr"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
)

// canonPrologue declares one attribute of every value type and a short
// path, all in the Writer's layout: six generic (attr) lines, three
// positional (node) ones.
const canonPrologue = "__rec=attr,id=0,name=function,type=string,prop=nested\n" +
	"__rec=attr,id=1,name=count,type=int,prop=asvalue\n" +
	"__rec=attr,id=2,name=bytes,type=uint,prop=asvalue\n" +
	"__rec=attr,id=3,name=time,type=double,prop=asvalue\n" +
	"__rec=attr,id=4,name=ok,type=bool,prop=asvalue\n" +
	"__rec=attr,id=5,name=loop,type=string,prop=nested\n" +
	"__rec=node,id=0,attr=0,data=main,parent=\n" +
	"__rec=node,id=1,attr=5,data=outer,parent=0\n" +
	"__rec=node,id=2,attr=0,data=foo,parent=1\n"

// canonCases are streams continuing canonPrologue. generic is how many of
// a case's own lines must reach the generic scanner: none for the shapes
// the Writer emits, and every line that deviates from them in any byte or
// is going to be an error. They are also FuzzDecodeDiff seeds.
var canonCases = []struct {
	name    string
	lines   string
	generic int
}{
	// (a) every line shape the Writer can emit
	{"root node, empty parent", "__rec=node,id=3,attr=0,data=other,parent=\n__rec=ctx,ref=3\n", 0},
	{"ref only", "__rec=ctx,ref=2\n", 0},
	{"several refs", "__rec=ctx,ref=2:0:1\n", 0},
	{"immediates only", "__rec=ctx,attr=1,data=7\n", 0},
	{"refs and immediates of every type",
		"__rec=ctx,ref=2:1,attr=0:1:2:3:4,data=leaf:-3:18446744073709551615:0.25:true\n", 0},
	{"node values of every type", "__rec=node,id=3,attr=1,data=-5,parent=2\n" +
		"__rec=node,id=4,attr=2,data=9,parent=3\n" +
		"__rec=node,id=5,attr=3,data=1e-3,parent=4\n" +
		"__rec=node,id=6,attr=4,data=false,parent=5\n" +
		"__rec=ctx,ref=6,attr=1,data=1\n", 0},
	{"empty string values", "__rec=node,id=3,attr=0,data=,parent=2\n" +
		"__rec=ctx,ref=3,attr=0,data=\n" +
		"__rec=ctx,attr=0:0,data=:\n" +
		"__rec=ctx,attr=0:5,data=x:\n", 0},
	{"redefined ids (appended stream)", "__rec=ctx,ref=2\n" +
		"__rec=node,id=0,attr=5,data=again,parent=\n" +
		"__rec=node,id=3,attr=0,data=bar,parent=0\n" +
		"__rec=ctx,ref=3:2\n", 0},
	{"18-digit id", "__rec=node,id=999999999999999999,attr=0,data=far,parent=2\n" +
		"__rec=ctx,ref=999999999999999999\n", 0},
	{"no final newline", "__rec=ctx,ref=2,attr=1,data=7", 0},
	{"globals between records", "__rec=ctx,ref=2\n__rec=globals,attr=0,data=quartz\n__rec=ctx,ref=1\n", 1},

	// (b) near misses: the generic scanner decodes them, errors included
	{"ctx keys reordered", "__rec=ctx,attr=1,data=7,ref=2\n", 1},
	{"node keys reordered", "__rec=node,attr=0,id=3,data=x,parent=\n__rec=ctx,ref=3\n", 1},
	{"kind not first", "ref=2,__rec=ctx\n", 1},
	{"duplicated id", "__rec=node,id=9,id=3,attr=0,data=x,parent=\n__rec=ctx,ref=3\n", 1},
	{"duplicated ref", "__rec=ctx,ref=0,ref=2\n", 1},
	{"ctx with an extra trailing field", "__rec=ctx,ref=2,attr=1,data=7,extra=1\n", 1},
	{"ref with an extra trailing field", "__rec=ctx,ref=2,extra=1\n", 1},
	{"node with an extra trailing field", "__rec=node,id=3,attr=0,data=x,parent=0,extra=1\n__rec=ctx,ref=3\n", 1},
	{"node without parent field", "__rec=node,id=3,attr=0,data=x\n__rec=ctx,ref=3\n", 1},
	{"trailing comma", "__rec=ctx,ref=2,\n", 1},
	{"escaped comma in a value", "__rec=ctx,attr=0,data=a\\,b\n", 1},
	{"escaped colon in a value", "__rec=ctx,attr=0:0,data=a\\:b:c\n", 1},
	{"escaped equals in a value", "__rec=ctx,attr=0,data=a\\=b\n", 1},
	{"escaped newline in a value", "__rec=ctx,attr=0,data=a\\nb\n", 1},
	{"escape in a node value", "__rec=node,id=3,attr=0,data=a\\,b,parent=2\n__rec=ctx,ref=3\n", 1},
	{"escaped digit in a ref", "__rec=ctx,ref=\\2\n", 1},
	{"raw equals in a value", "__rec=ctx,attr=0,data=a=b\n", 1},
	{"raw colon in a node value", "__rec=node,id=3,attr=0,data=a:b,parent=2\n__rec=ctx,ref=3\n", 1},
	{"trailing colon in ref", "__rec=ctx,ref=2:\n", 1},
	{"trailing colon in attr", "__rec=ctx,attr=1:,data=7\n", 1},
	{"trailing colon in data", "__rec=ctx,attr=1,data=7:\n", 1},
	{"more ids than values", "__rec=ctx,attr=1:1,data=7\n", 1},
	{"more values than ids", "__rec=ctx,attr=1,data=7:8\n", 1},
	{"two ids, empty data", "__rec=ctx,attr=0:0,data=\n", 1},
	{"attr without data", "__rec=ctx,ref=2,attr=1\n", 1},
	{"empty attr list", "__rec=ctx,attr=,data=\n", 1},
	{"empty ref list", "__rec=ctx,ref=\n", 1},
	{"undefined node ref", "__rec=ctx,ref=77\n", 1},
	{"undefined ref after a defined one", "__rec=ctx,ref=2:77,attr=1,data=7\n", 1},
	{"undefined attribute in ctx", "__rec=ctx,ref=2,attr=9,data=1\n", 1},
	{"undefined attribute in node", "__rec=node,id=3,attr=9,data=x,parent=\n", 1},
	{"undefined parent", "__rec=node,id=3,attr=0,data=x,parent=77\n", 1},
	{"node naming itself as parent", "__rec=node,id=3,attr=0,data=x,parent=3\n", 1},
	{"unparsable immediate", "__rec=ctx,ref=2,attr=1:3,data=7:fast\n", 1},
	{"empty int immediate", "__rec=ctx,ref=2,attr=1,data=\n", 1},
	{"unparsable node value", "__rec=node,id=3,attr=4,data=maybe,parent=2\n", 1},
	{"19-digit id", "__rec=node,id=1000000000000000000,attr=0,data=far,parent=2\n" +
		"__rec=ctx,ref=1000000000000000000\n", 2},
	{"id overflowing int64", "__rec=ctx,ref=99999999999999999999\n", 1},
	{"negative id", "__rec=node,id=-7,attr=0,data=neg,parent=2\n__rec=ctx,ref=-7\n", 2},
	{"plus-signed ref", "__rec=ctx,ref=+2\n", 1},
	{"plus-signed attr id", "__rec=ctx,attr=+1,data=7\n", 1},
	{"space before a key", "__rec=ctx, ref=2\n", 1},
	{"ctx alone", "__rec=ctx\n", 1},
	{"kind with a suffix", "__rec=ctxx,ref=2\n__rec=nodes,id=3,attr=0,data=x,parent=\n__rec=ctx,ref=3\n", 3},
}

// filterKept returns the entries of rec a projection onto keep retains
// (nil keeps everything): what the oracle, which has no projection, would
// have returned under one.
func filterKept(rec snapshot.FlatRecord, keep map[string]bool) snapshot.FlatRecord {
	if keep == nil {
		return rec
	}
	var out snapshot.FlatRecord
	for _, e := range rec {
		if keep[e.Attr.Name()] {
			out = append(out, e)
		}
	}
	return out
}

// decodeLikeOracle reads in through a Reader (under the projection keep,
// with a tree sink or without) and through the legacy decoder, fails the
// test on any difference — records, error text, globals, sink size — and
// returns how many lines the Reader gave to the generic scanner.
func decodeLikeOracle(t *testing.T, in string, keep map[string]bool, withSink bool) uint64 {
	t.Helper()
	var sink *contexttree.Tree
	if withSink {
		sink = contexttree.New()
	}
	oracleTree := contexttree.New()
	rd := NewReader(strings.NewReader(in), attr.NewRegistry(), sink)
	rd.SetProjection(keep)
	ro := newOracleReader(strings.NewReader(in), attr.NewRegistry(), oracleTree)
	before := telLinesGeneric.Value()
	var rec snapshot.FlatRecord
	for i := 0; ; i++ {
		err := rd.NextInto(&rec)
		recO, errO := ro.Next()
		if errO == io.EOF || err == io.EOF {
			if err != errO {
				t.Fatalf("record %d: reader ends with %v, oracle with %v", i, err, errO)
			}
			break
		}
		if err != nil || errO != nil {
			if fmt.Sprint(err) != fmt.Sprint(errO) {
				t.Fatalf("record %d: error divergence:\nreader: %v\noracle: %v", i, err, errO)
			}
			break
		}
		if got, want := inOrder(rec), inOrder(filterKept(recO, keep)); got != want {
			t.Fatalf("record %d = %q, oracle %q", i, got, want)
		}
	}
	if withSink && sink.Len() != oracleTree.Len() {
		t.Fatalf("tree sink has %d nodes, oracle's tree %d", sink.Len(), oracleTree.Len())
	}
	if got, want := inOrder(rd.Globals()), inOrder(ro.Globals()); got != want {
		t.Fatalf("globals = %q, oracle %q", got, want)
	}
	return telLinesGeneric.Value() - before
}

// TestCanonicalDecodeMatchesOracle runs every canonCase — LF and CRLF,
// with and without a projection, with and without a tree sink — against
// the oracle, and checks each line took the scanner it should have.
func TestCanonicalDecodeMatchesOracle(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	projections := []map[string]bool{
		nil,
		{"function": true, "count": true},
		{"loop": true, "time": true, "ok": true},
		{"absent": true},
	}
	for _, c := range canonCases {
		t.Run(c.name, func(t *testing.T) {
			in := canonPrologue + c.lines
			want := uint64(strings.Count(canonPrologue, "__rec=attr") + c.generic)
			for _, in := range []string{in, strings.ReplaceAll(in, "\n", "\r\n")} {
				for _, keep := range projections {
					for _, withSink := range []bool{false, true} {
						if got := decodeLikeOracle(t, in, keep, withSink); got != want {
							t.Errorf("keep %v, sink %v: %d lines took the generic scanner, want %d",
								keep, withSink, got, want)
						}
					}
				}
			}
		})
	}
}

// readerState is everything a caller can observe of a Reader that has
// been read to its end.
type readerState struct {
	Records, Globals []string
	Offset           int64
	MetaLines        int
	Err              string
}

func drainState(rd *Reader) readerState {
	var st readerState
	var rec snapshot.FlatRecord
	for {
		err := rd.NextInto(&rec)
		if err != nil {
			if err != io.EOF {
				st.Err = err.Error()
			}
			break
		}
		st.Records = append(st.Records, inOrder(rec))
	}
	for _, g := range rd.Globals() {
		st.Globals = append(st.Globals, g.String())
	}
	st.Offset, st.MetaLines = rd.Offset(), rd.MetaLines()
	return st
}

// TestResetMatchesFreshReader: one Reader Reset from stream A onto stream
// B reads B exactly as a Reader built for B does, whatever A left behind.
func TestResetMatchesFreshReader(t *testing.T) {
	const streamA = "__rec=attr,id=0,name=function,type=string,prop=nested\n" +
		"__rec=attr,id=1,name=count,type=int,prop=asvalue\n" +
		"__rec=attr,id=2,name=host,type=string,prop=global\n" +
		"__rec=globals,attr=2,data=quartz\n" +
		"__rec=node,id=0,attr=0,data=main,parent=\n" +
		"__rec=node,id=1,attr=0,data=foo,parent=0\n" +
		"__rec=node,id=2,attr=0,data=bar,parent=1\n" +
		"__rec=ctx,ref=2,attr=1,data=1\n" +
		"__rec=ctx,ref=1,attr=1,data=2\n" +
		"__rec=ctx,ref=0,attr=1,data=3\n" +
		"__rec=ctx,ref=2:77,attr=1,data=4\n" + // an error, mid-file
		"__rec=ctx,ref=1\n"
	// B numbers its attributes the other way round and shares some values
	const bDefs = "__rec=attr,id=0,name=count,type=int,prop=asvalue\n" +
		"__rec=attr,id=1,name=function,type=string,prop=nested\n" +
		"__rec=globals,attr=1,data=ruby\n" +
		"__rec=node,id=0,attr=1,data=main,parent=\n"
	streamsB := map[string]string{
		// longer than A up to the limit one use sets there
		"plain": bDefs + "__rec=node,id=1,attr=1,data=baz,parent=0\n" +
			strings.Repeat("__rec=ctx,ref=1,attr=0,data=4\n", 8) + "__rec=ctx,ref=0\n",
		"node id only A defined":      bDefs + "__rec=ctx,ref=0\n__rec=ctx,ref=2,attr=0,data=4\n",
		"parent id only A defined":    bDefs + "__rec=node,id=5,attr=1,data=baz,parent=1\n",
		"attribute id only A defined": bDefs + "__rec=ctx,ref=0,attr=2,data=4\n",
		"empty":                       "",
	}
	// what happens to the reader on A before it is reset
	uses := map[string]func(t *testing.T, rd *Reader){
		"read into its error": func(t *testing.T, rd *Reader) {
			st := drainState(rd)
			if st.Err != "calformat: line 11: ctx record: undefined node 77" || len(st.Records) != 3 {
				t.Fatalf("stream A: %+v", st)
			}
		},
		"projection and limit set": func(t *testing.T, rd *Reader) {
			rd.SetProjection(map[string]bool{"count": true})
			rd.SetLimit(int64(strings.Index(streamA, "__rec=ctx,ref=1")))
			if st := drainState(rd); st.Err != "" || !reflect.DeepEqual(st.Records, []string{"count=1"}) {
				t.Fatalf("stream A, projected and limited: %+v", st)
			}
		},
		"abandoned mid-file": func(t *testing.T, rd *Reader) {
			var rec snapshot.FlatRecord
			if err := rd.NextInto(&rec); err != nil {
				t.Fatal(err)
			}
		},
		"not read at all": func(*testing.T, *Reader) {},
	}
	for useName, use := range uses {
		for bName, b := range streamsB {
			for _, sameReg := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/sameReg=%v", useName, bName, sameReg), func(t *testing.T) {
					regA := attr.NewRegistry()
					rd := NewReader(strings.NewReader(streamA), regA, contexttree.New())
					use(t, rd)
					regB := regA
					if !sameReg {
						regB = attr.NewRegistry()
					}
					rd.Reset(strings.NewReader(b), regB, nil)
					got := drainState(rd)
					want := drainState(NewReader(strings.NewReader(b), attr.NewRegistry(), nil))
					if !reflect.DeepEqual(got, want) {
						t.Errorf("reset reader: %+v\nfresh reader: %+v", got, want)
					}
				})
			}
		}
	}
}
