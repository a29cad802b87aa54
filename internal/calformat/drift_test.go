package calformat_test

// Drift guard for the canonical line layout. The Reader decodes node and
// ctx lines positionally only while they are byte for byte what the Writer
// emits (decode.go, "The canonical layout"); anything else still decodes,
// through the generic scanner, just slower — so a change to the Writer's
// field order would turn the fast path off with every other test green.
// This test fails instead: over streams from each producer in the
// repository, caligo.calformat.lines.generic must count the attr and
// globals lines and not one node or ctx line.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caligo/caliper"
	"caligo/internal/apps/paradis"
	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
)

// recordWriter is what Writer and IndexingWriter share.
type recordWriter interface {
	WriteRecord(snapshot.Record) error
	WriteGlobals([]attr.Entry) error
}

// writeEveryShape writes globals and one record of each shape — refs only,
// several refs, immediates only, both — with a value of every type.
func writeEveryShape(t *testing.T, w recordWriter, reg *attr.Registry, tree *contexttree.Tree) {
	t.Helper()
	fn := reg.MustCreate("function", attr.String, attr.Nested)
	loop := reg.MustCreate("loop", attr.Int, attr.Nested)
	host := reg.MustCreate("host", attr.String, attr.Global)
	imm := []attr.Entry{
		{Attr: reg.MustCreate("count", attr.Int, attr.AsValue), Value: attr.IntV(-3)},
		{Attr: reg.MustCreate("bytes", attr.Uint, attr.AsValue), Value: attr.UintV(1 << 63)},
		{Attr: reg.MustCreate("time", attr.Float, attr.AsValue), Value: attr.FloatV(0.25)},
		{Attr: reg.MustCreate("ok", attr.Bool, attr.AsValue), Value: attr.BoolV(true)},
		{Attr: reg.MustCreate("label", attr.String, attr.AsValue), Value: attr.StringV("")},
	}
	root := tree.GetChild(contexttree.InvalidNode, fn, attr.StringV("main"))
	leaf := tree.GetChild(tree.GetChild(root, loop, attr.IntV(7)), fn, attr.StringV("foo"))
	other := tree.GetChild(contexttree.InvalidNode, fn, attr.StringV("init"))
	if err := w.WriteGlobals([]attr.Entry{{Attr: host, Value: attr.StringV("quartz")}}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []snapshot.Record{
		{Nodes: []contexttree.NodeID{leaf}},
		{Nodes: []contexttree.NodeID{leaf, other, root}},
		{Imm: imm},
		{Nodes: []contexttree.NodeID{other}, Imm: imm[:1]},
		{Nodes: []contexttree.NodeID{root, leaf}, Imm: imm},
	} {
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriterLinesDecodePositionally(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	dir := t.TempDir()
	streams := map[string][]byte{}

	var plain bytes.Buffer
	reg, tree := attr.NewRegistry(), contexttree.New()
	w := calformat.NewWriter(&plain, reg, tree)
	writeEveryShape(t, w, reg, tree)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	streams["Writer"] = plain.Bytes()

	var indexed bytes.Buffer
	reg, tree = attr.NewRegistry(), contexttree.New()
	iw := calformat.NewIndexingWriter(&indexed, reg, tree, calformat.IndexOptions{BlockRecords: 2})
	writeEveryShape(t, iw, reg, tree)
	if _, err := iw.Finish(); err != nil {
		t.Fatal(err)
	}
	streams["IndexingWriter"] = indexed.Bytes()

	recorded := filepath.Join(dir, "recorded.cali")
	ch, err := caliper.NewChannel(caliper.Config{
		"services":          "event,trace,recorder",
		"recorder.filename": recorded,
	})
	if err != nil {
		t.Fatal(err)
	}
	th := ch.Thread()
	for _, region := range []string{"main", "solve", "solve"} {
		if err := th.Begin("region", region); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		if err := th.End("region"); err != nil {
			t.Fatal(err)
		}
	}
	if err := ch.FlushAndWrite(); err != nil {
		t.Fatal(err)
	}
	files, err := paradis.GenerateDir(filepath.Join(dir, "paradis"), 2,
		paradis.Config{Kernels: 3, MPIFunctions: 2, Iterations: 2, ExtraRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{"caliper recorder": recorded, "paradis.GenerateDir": files[1]} {
		if streams[name], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}

	generic := telemetry.NewCounter("caligo.calformat.lines.generic") // the Reader's own counter: same name, same registry
	for name, data := range streams {
		lines := map[string]uint64{}
		for _, l := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			kind, _, _ := strings.Cut(strings.TrimPrefix(l, "__rec="), ",")
			lines[kind]++
		}
		// the recorder writes flat records: it alone has no node lines
		if lines["ctx"] == 0 || lines["attr"] == 0 || (lines["node"] == 0 && name != "caliper recorder") {
			t.Fatalf("%s: stream exercises too little: %v lines", name, lines)
		}
		before := generic.Value()
		recs, err := calformat.NewReader(bytes.NewReader(data), attr.NewRegistry(), nil).ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if uint64(len(recs)) != lines["ctx"] {
			t.Errorf("%s: %d records from %d ctx lines", name, len(recs), lines["ctx"])
		}
		if got, want := generic.Value()-before, lines["attr"]+lines["globals"]; got != want {
			t.Errorf("%s: %d lines took the generic scanner, want the %d attr and globals lines only (%v);\n"+
				"the Writer's layout and decode.go's canonNodeLine/canonCtxLine have drifted apart",
				name, got, want, lines)
		}
	}
}
