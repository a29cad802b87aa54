package calformat

// The legacy line decoder: the original string- and map-based
// implementation of the .cali stream reader, kept as the differential-fuzz
// oracle for the byte-oriented decoder in decode.go (see FuzzDecodeDiff).
// It allocates a line copy, a field slice, and two maps per record; the
// production Reader must match its output exactly while allocating
// (near) nothing in steady state. Do not "optimize" this file — its value
// is being the obviously-correct reference semantics.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"caligo/internal/attr"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
)

// unescape reverses escape.
func unescape(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			default:
				sb.WriteByte(s[i])
			}
			continue
		}
		sb.WriteByte(s[i])
	}
	return sb.String()
}

// splitFields splits a record line into key=value pairs. Values are
// returned raw (still escaped) so that list values can be split on ':'
// before unescaping; keys are unescaped here.
func splitFields(line string) ([][2]string, error) {
	var fields [][2]string
	var key, val strings.Builder
	inKey := true
	flush := func() error {
		if key.Len() == 0 && val.Len() == 0 && inKey {
			return nil // empty segment
		}
		if inKey {
			return fmt.Errorf("calformat: field %q has no '='", key.String())
		}
		fields = append(fields, [2]string{unescape(key.String()), val.String()})
		key.Reset()
		val.Reset()
		inKey = true
		return nil
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '\\' && i+1 < len(line):
			// keep the escape sequence intact for later unescaping
			if inKey {
				key.WriteByte(c)
				key.WriteByte(line[i+1])
			} else {
				val.WriteByte(c)
				val.WriteByte(line[i+1])
			}
			i++
		case c == ',':
			if err := flush(); err != nil {
				return nil, err
			}
		case c == '=' && inKey:
			inKey = false
		default:
			if inKey {
				key.WriteByte(c)
			} else {
				val.WriteByte(c)
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return fields, nil
}

// splitList splits a raw (still escaped) ':'-separated list and unescapes
// each element.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\\' && i+1 < len(s):
			sb.WriteByte(s[i])
			sb.WriteByte(s[i+1])
			i++
		case s[i] == ':':
			out = append(out, unescape(sb.String()))
			sb.Reset()
		default:
			sb.WriteByte(s[i])
		}
	}
	out = append(out, unescape(sb.String()))
	return out
}

// oracleReader is the legacy Reader: same remapping semantics as Reader,
// implemented with per-line strings and maps. Telemetry is deliberately
// not wired up — the oracle only runs in tests.
type oracleReader struct {
	sc      *bufio.Scanner
	reg     *attr.Registry
	tree    *contexttree.Tree
	attrMap map[int64]attr.Attribute
	nodeMap map[int64]contexttree.NodeID
	globals []attr.Entry
	line    int
}

// newOracleReader returns the legacy reader merging stream contents into
// reg and tree.
func newOracleReader(r io.Reader, reg *attr.Registry, tree *contexttree.Tree) *oracleReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	return &oracleReader{
		sc:      sc,
		reg:     reg,
		tree:    tree,
		attrMap: map[int64]attr.Attribute{},
		nodeMap: map[int64]contexttree.NodeID{},
	}
}

// Globals returns the metadata entries read so far.
func (r *oracleReader) Globals() []attr.Entry { return r.globals }

func (r *oracleReader) errf(format string, args ...any) error {
	return fmt.Errorf("calformat: line %d: %s", r.line, fmt.Sprintf(format, args...))
}

// Next returns the next snapshot record in the stream, fully expanded.
// It returns io.EOF after the last record.
func (r *oracleReader) Next() (snapshot.FlatRecord, error) {
	for r.sc.Scan() {
		r.line++
		line := strings.TrimRight(r.sc.Text(), "\r")
		if line == "" {
			continue
		}
		fields, err := splitFields(line)
		if err != nil {
			return nil, r.errf("%v", err)
		}
		fm := map[string]string{}
		for _, f := range fields {
			fm[f[0]] = f[1]
		}
		has := map[string]bool{}
		for _, f := range fields {
			has[f[0]] = true
		}
		switch fm["__rec"] {
		case "attr":
			if err := r.readAttr(fm); err != nil {
				return nil, err
			}
		case "node":
			if err := r.readNode(fm); err != nil {
				return nil, err
			}
		case "globals":
			e, err := r.readEntry(fm)
			if err != nil {
				return nil, err
			}
			r.globals = append(r.globals, e)
		case "ctx":
			return r.readCtx(fm, has)
		case "":
			return nil, r.errf("record without __rec field")
		default:
			// unknown record kinds are skipped for forward compatibility
		}
	}
	if err := r.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// ReadAll reads all remaining records.
func (r *oracleReader) ReadAll() ([]snapshot.FlatRecord, error) {
	var out []snapshot.FlatRecord
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

func (r *oracleReader) readAttr(fm map[string]string) error {
	id, err := strconv.ParseInt(fm["id"], 10, 64)
	if err != nil {
		return r.errf("attr record: bad id %q", fm["id"])
	}
	typ, ok := attr.ParseType(unescape(fm["type"]))
	if !ok {
		return r.errf("attr record: unknown type %q", fm["type"])
	}
	props, err := attr.ParseProperties(unescape(fm["prop"]))
	if err != nil {
		return r.errf("attr record: %v", err)
	}
	name := unescape(fm["name"])
	if name == "" {
		return r.errf("attr record: missing name")
	}
	a, err := r.reg.Create(name, typ, props)
	if err != nil {
		return r.errf("attr record: %v", err)
	}
	r.attrMap[id] = a
	return nil
}

func (r *oracleReader) readNode(fm map[string]string) error {
	id, err := strconv.ParseInt(fm["id"], 10, 64)
	if err != nil {
		return r.errf("node record: bad id %q", fm["id"])
	}
	aid, err := strconv.ParseInt(fm["attr"], 10, 64)
	if err != nil {
		return r.errf("node record: bad attr %q", fm["attr"])
	}
	a, ok := r.attrMap[aid]
	if !ok {
		return r.errf("node record: undefined attribute %d", aid)
	}
	parent := contexttree.InvalidNode
	if ps := fm["parent"]; ps != "" {
		pid, err := strconv.ParseInt(ps, 10, 64)
		if err != nil {
			return r.errf("node record: bad parent %q", ps)
		}
		parent, ok = r.nodeMap[pid]
		if !ok {
			return r.errf("node record: undefined parent node %d", pid)
		}
	}
	v, err := attr.ParseAs(unescape(fm["data"]), a.Type())
	if err != nil {
		return r.errf("node record: %v", err)
	}
	r.nodeMap[id] = r.tree.GetChild(parent, a, v)
	return nil
}

func (r *oracleReader) readEntry(fm map[string]string) (attr.Entry, error) {
	aid, err := strconv.ParseInt(fm["attr"], 10, 64)
	if err != nil {
		return attr.Entry{}, r.errf("bad attr id %q", fm["attr"])
	}
	a, ok := r.attrMap[aid]
	if !ok {
		return attr.Entry{}, r.errf("undefined attribute %d", aid)
	}
	v, err := attr.ParseAs(unescape(fm["data"]), a.Type())
	if err != nil {
		return attr.Entry{}, r.errf("%v", err)
	}
	return attr.Entry{Attr: a, Value: v}, nil
}

func (r *oracleReader) readCtx(fm map[string]string, has map[string]bool) (snapshot.FlatRecord, error) {
	var rec snapshot.FlatRecord
	for _, ref := range splitList(fm["ref"]) {
		nid, err := strconv.ParseInt(ref, 10, 64)
		if err != nil {
			return nil, r.errf("ctx record: bad node ref %q", ref)
		}
		local, ok := r.nodeMap[nid]
		if !ok {
			return nil, r.errf("ctx record: undefined node %d", nid)
		}
		path, err := r.tree.Path(local, r.reg)
		if err != nil {
			return nil, r.errf("ctx record: %v", err)
		}
		rec = append(rec, path...)
	}
	attrs := splitList(fm["attr"])
	data := splitList(fm["data"])
	// a present-but-empty data field is one empty value (splitList cannot
	// distinguish "" from an absent field)
	if has["data"] && len(data) == 0 {
		data = []string{""}
	}
	if has["attr"] && len(attrs) == 0 {
		return nil, r.errf("ctx record: empty attr id list")
	}
	if len(attrs) != len(data) {
		return nil, r.errf("ctx record: %d attr ids but %d values", len(attrs), len(data))
	}
	for i := range attrs {
		aid, err := strconv.ParseInt(attrs[i], 10, 64)
		if err != nil {
			return nil, r.errf("ctx record: bad attr id %q", attrs[i])
		}
		a, ok := r.attrMap[aid]
		if !ok {
			return nil, r.errf("ctx record: undefined attribute %d", aid)
		}
		v, err := attr.ParseAs(data[i], a.Type())
		if err != nil {
			return nil, r.errf("ctx record: %v", err)
		}
		rec = append(rec, attr.Entry{Attr: a, Value: v})
	}
	if len(rec) == 0 {
		return nil, r.errf("ctx record: empty record")
	}
	return rec, nil
}
