// Package calformat implements the text stream format for performance
// datasets, modeled on Caliper's .cali format. A stream is a sequence of
// lines, each a record of comma-separated key=value fields:
//
//	__rec=attr,id=3,name=time.duration,type=int,prop=asvalue
//	__rec=node,id=0,attr=1,data=main,parent=
//	__rec=node,id=1,attr=1,data=foo,parent=0
//	__rec=ctx,ref=1,attr=3,data=42
//	__rec=globals,attr=5,data=quartz
//
// Attribute and node definitions appear before the records that reference
// them, so streams can be written incrementally and read in one pass. The
// node records encode the context tree, giving the same prefix compression
// as the in-memory snapshot representation.
//
// The Writer lives in this file; the byte-oriented zero-allocation Reader
// lives in decode.go. The legacy string/map-based decoder it is fuzzed
// against is test-only code (legacy_test.go).
package calformat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"caligo/internal/attr"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
)

// Self-instrumentation (see docs/OBSERVABILITY.md). All counters are
// no-ops (one atomic load) unless telemetry is enabled.
var (
	telRecsRead     = telemetry.NewCounter("caligo.calformat.records.read")
	telBytesRead    = telemetry.NewCounter("caligo.calformat.bytes.read")
	telDecodeErrors = telemetry.NewCounter("caligo.calformat.decode.errors")
	telRecsWritten  = telemetry.NewCounter("caligo.calformat.records.written")
	telBytesWritten = telemetry.NewCounter("caligo.calformat.bytes.written")
	telInterned     = telemetry.NewCounter("caligo.calformat.interned")
	telScratchBytes = telemetry.NewCounter("caligo.calformat.scratch.bytes")
	telLinesGeneric = telemetry.NewCounter("caligo.calformat.lines.generic")
)

// escape protects field- and list-separator characters within values.
// Escaped characters: backslash, comma, equals, colon, and newlines.
func escape(s string) string {
	if !strings.ContainsAny(s, "\\,=:\n\r") {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			sb.WriteString(`\\`)
		case ',':
			sb.WriteString(`\,`)
		case '=':
			sb.WriteString(`\=`)
		case ':':
			sb.WriteString(`\:`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		default:
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}

// Writer emits a .cali stream. It tracks which attribute and node
// definitions have been written and emits them on first use, so records
// can be written in any order. Writer is not safe for concurrent use.
//
// The bytes of its node and ctx lines — keys, their order, plain decimal
// ids — are a contract with the Reader, which decodes exactly that layout
// positionally and everything else through its slower generic scanner
// (decode.go, "The canonical layout"). Change ensureNode or WriteRecord
// and canonNodeLine / canonCtxLine together;
// TestWriterLinesDecodePositionally fails when they drift apart.
type Writer struct {
	w         *bufio.Writer
	reg       *attr.Registry
	tree      *contexttree.Tree
	wroteAttr map[attr.ID]bool
	wroteNode map[contexttree.NodeID]bool

	// metaLines counts the metadata lines (attr, node, globals) written so
	// far. The block-aware IndexingWriter reads it to record which blocks
	// a reader can skip without a metadata scan (see index.go).
	metaLines int
}

// NewWriter returns a Writer resolving attributes through reg and node
// references through tree.
func NewWriter(w io.Writer, reg *attr.Registry, tree *contexttree.Tree) *Writer {
	return &Writer{
		w:         bufio.NewWriter(w),
		reg:       reg,
		tree:      tree,
		wroteAttr: map[attr.ID]bool{},
		wroteNode: map[contexttree.NodeID]bool{},
	}
}

// ensureAttr writes the attribute definition if not yet written.
func (w *Writer) ensureAttr(a attr.Attribute) error {
	if w.wroteAttr[a.ID()] {
		return nil
	}
	w.wroteAttr[a.ID()] = true
	n, err := fmt.Fprintf(w.w, "__rec=attr,id=%d,name=%s,type=%s,prop=%s\n",
		a.ID(), escape(a.Name()), a.Type(), escape(a.Properties().String()))
	telBytesWritten.Add(uint64(n))
	w.metaLines++
	return err
}

// ensureNode writes the node definition chain (parents first).
func (w *Writer) ensureNode(n contexttree.NodeID) error {
	if n == contexttree.InvalidNode || w.wroteNode[n] {
		return nil
	}
	parent := w.tree.Parent(n)
	if err := w.ensureNode(parent); err != nil {
		return err
	}
	aid, val, err := w.tree.Entry(n)
	if err != nil {
		return err
	}
	a, ok := w.reg.Get(aid)
	if !ok {
		return fmt.Errorf("calformat: node %d references unknown attribute %d", n, aid)
	}
	if err := w.ensureAttr(a); err != nil {
		return err
	}
	w.wroteNode[n] = true
	parentStr := ""
	if parent != contexttree.InvalidNode {
		parentStr = strconv.Itoa(int(parent))
	}
	written, err := fmt.Fprintf(w.w, "__rec=node,id=%d,attr=%d,data=%s,parent=%s\n",
		n, aid, escape(val.String()), parentStr)
	telBytesWritten.Add(uint64(written))
	w.metaLines++
	return err
}

// WriteRecord writes one compressed snapshot record. Empty records are
// skipped (an aggregation can produce an all-empty-key group with no
// surviving result entries; there is nothing to encode for it).
func (w *Writer) WriteRecord(rec snapshot.Record) error {
	if rec.Empty() {
		return nil
	}
	for _, n := range rec.Nodes {
		if err := w.ensureNode(n); err != nil {
			return err
		}
	}
	for _, e := range rec.Imm {
		if err := w.ensureAttr(e.Attr); err != nil {
			return err
		}
	}
	var sb strings.Builder
	sb.WriteString("__rec=ctx")
	if len(rec.Nodes) > 0 {
		sb.WriteString(",ref=")
		for i, n := range rec.Nodes {
			if i > 0 {
				sb.WriteByte(':')
			}
			sb.WriteString(strconv.Itoa(int(n)))
		}
	}
	if len(rec.Imm) > 0 {
		sb.WriteString(",attr=")
		for i, e := range rec.Imm {
			if i > 0 {
				sb.WriteByte(':')
			}
			sb.WriteString(strconv.Itoa(int(e.Attr.ID())))
		}
		sb.WriteString(",data=")
		for i, e := range rec.Imm {
			if i > 0 {
				sb.WriteByte(':')
			}
			sb.WriteString(escape(e.Value.String()))
		}
	}
	sb.WriteByte('\n')
	n, err := w.w.WriteString(sb.String())
	telRecsWritten.Inc()
	telBytesWritten.Add(uint64(n))
	return err
}

// WriteFlat writes a fully expanded record as immediate entries. This is
// used for aggregation results, where prefix compression has no benefit.
func (w *Writer) WriteFlat(rec snapshot.FlatRecord) error {
	return w.WriteRecord(snapshot.Record{Imm: rec})
}

// WriteGlobals writes per-run metadata entries.
func (w *Writer) WriteGlobals(entries []attr.Entry) error {
	for _, e := range entries {
		if err := w.ensureAttr(e.Attr); err != nil {
			return err
		}
		n, err := fmt.Fprintf(w.w, "__rec=globals,attr=%d,data=%s\n",
			e.Attr.ID(), escape(e.Value.String()))
		telBytesWritten.Add(uint64(n))
		w.metaLines++
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }
