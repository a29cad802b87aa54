package query

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/calql"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
)

// column is one output column: the attribute label it reads and the header
// it displays.
type column struct {
	label  string
	header string
}

// columnsFor determines the output columns: the SELECT list when present
// (with '*' expanding to all remaining attributes), otherwise all
// attribute labels in first-appearance order across rows.
func columnsFor(q *calql.Query, rows []snapshot.FlatRecord) []column {
	discovered := func(exclude map[string]bool) []column {
		var cols []column
		seen := map[string]bool{}
		for k := range exclude {
			seen[k] = true
		}
		for _, r := range rows {
			for _, e := range r {
				if name := e.Attr.Name(); !seen[name] {
					seen[name] = true
					cols = append(cols, column{label: name, header: name})
				}
			}
		}
		return cols
	}
	if len(q.Select) == 0 {
		return discovered(nil)
	}
	var cols []column
	explicit := map[string]bool{}
	for _, s := range q.Select {
		if !s.Star {
			explicit[s.Label] = true
		}
	}
	for _, s := range q.Select {
		if s.Star {
			cols = append(cols, discovered(explicit)...)
			continue
		}
		cols = append(cols, column{label: s.Label, header: s.DisplayName()})
	}
	return cols
}

// cell renders the value(s) of one attribute in a row; stacked values
// (call paths) join with '/'.
func cell(row snapshot.FlatRecord, label string) string {
	var vals []string
	for _, e := range row {
		if e.Attr.Name() == label {
			vals = append(vals, e.Value.String())
		}
	}
	return strings.Join(vals, "/")
}

// isNumericCol reports whether every non-empty value in the column is
// numeric (used for table alignment).
func isNumericCol(rows []snapshot.FlatRecord, label string) bool {
	any := false
	for _, r := range rows {
		for _, e := range r {
			if e.Attr.Name() != label {
				continue
			}
			switch e.Value.Kind() {
			case attr.Int, attr.Uint, attr.Float:
				any = true
			default:
				return false
			}
		}
	}
	return any
}

// Write renders the result rows in the query's output format.
func (e *Engine) Write(w io.Writer, rows []snapshot.FlatRecord) error {
	sp := e.prof.Begin("query.format", 0)
	if sp.Active() {
		kind := e.q.Format.Kind
		if kind == "" {
			kind = "table"
		}
		sp.Arg("kind", kind)
		sp.ArgInt("rows", int64(len(rows)))
		defer sp.End()
	}
	switch e.q.Format.Kind {
	case "", "table":
		return writeTable(w, e.q, rows)
	case "csv":
		return writeCSV(w, e.q, rows)
	case "json":
		return writeJSON(w, e.q, rows)
	case "expand":
		return writeExpand(w, rows)
	case "tree":
		return writeTree(w, e.q, rows)
	case "cali":
		return writeCali(w, e.reg, rows)
	}
	return fmt.Errorf("query: unknown format %q", e.q.Format.Kind)
}

func writeTable(w io.Writer, q *calql.Query, rows []snapshot.FlatRecord) error {
	cols := columnsFor(q, rows)
	if len(cols) == 0 {
		return nil
	}
	widths := make([]int, len(cols))
	numeric := make([]bool, len(cols))
	cells := make([][]string, len(rows))
	for i, c := range cols {
		widths[i] = len(c.header)
		numeric[i] = isNumericCol(rows, c.label)
	}
	for ri, row := range rows {
		cells[ri] = make([]string, len(cols))
		for ci, c := range cols {
			s := cell(row, c.label)
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	writeRow := func(vals []string) error {
		var sb strings.Builder
		for i, v := range vals {
			if i > 0 {
				sb.WriteByte(' ')
			}
			if numeric[i] {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(v)))
				sb.WriteString(v)
			} else {
				sb.WriteString(v)
				if i < len(vals)-1 {
					sb.WriteString(strings.Repeat(" ", widths[i]-len(v)))
				}
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	headers := make([]string, len(cols))
	for i, c := range cols {
		headers[i] = c.header
	}
	if err := writeRow(headers); err != nil {
		return err
	}
	for _, row := range cells {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// csvEscape quotes a CSV field when needed.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n\r") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func writeCSV(w io.Writer, q *calql.Query, rows []snapshot.FlatRecord) error {
	cols := columnsFor(q, rows)
	if len(cols) == 0 {
		return nil
	}
	headers := make([]string, len(cols))
	for i, c := range cols {
		headers[i] = csvEscape(c.header)
	}
	if _, err := fmt.Fprintln(w, strings.Join(headers, ",")); err != nil {
		return err
	}
	for _, row := range rows {
		vals := make([]string, len(cols))
		for i, c := range cols {
			vals[i] = csvEscape(cell(row, c.label))
		}
		if _, err := fmt.Fprintln(w, strings.Join(vals, ",")); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(w io.Writer, q *calql.Query, rows []snapshot.FlatRecord) error {
	cols := columnsFor(q, rows)
	out := make([]map[string]any, 0, len(rows))
	for _, row := range rows {
		obj := map[string]any{}
		for _, c := range cols {
			var vals []attr.Variant
			for _, e := range row {
				if e.Attr.Name() == c.label {
					vals = append(vals, e.Value)
				}
			}
			if len(vals) == 0 {
				continue
			}
			toJSON := func(v attr.Variant) any {
				switch v.Kind() {
				case attr.Int:
					return v.AsInt()
				case attr.Uint:
					return v.AsUint()
				case attr.Float:
					return v.AsFloat()
				case attr.Bool:
					return v.AsBool()
				default:
					return v.String()
				}
			}
			if len(vals) == 1 {
				obj[c.header] = toJSON(vals[0])
			} else {
				arr := make([]any, len(vals))
				for i, v := range vals {
					arr[i] = toJSON(v)
				}
				obj[c.header] = arr
			}
		}
		out = append(out, obj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func writeExpand(w io.Writer, rows []snapshot.FlatRecord) error {
	for _, row := range rows {
		parts := make([]string, len(row))
		for i, e := range row {
			parts[i] = e.String()
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, ",")); err != nil {
			return err
		}
	}
	return nil
}

// writeTree renders rows hierarchically over the first column's value
// path; remaining columns print right of the tree.
func writeTree(w io.Writer, q *calql.Query, rows []snapshot.FlatRecord) error {
	cols := columnsFor(q, rows)
	if len(cols) == 0 {
		return nil
	}
	pathCol, rest := cols[0], cols[1:]

	type node struct {
		name     string
		children map[string]*node
		order    []string
		row      snapshot.FlatRecord
	}
	root := &node{children: map[string]*node{}}
	for _, row := range rows {
		var path []string
		for _, e := range row {
			if e.Attr.Name() == pathCol.label {
				path = append(path, e.Value.String())
			}
		}
		if len(path) == 0 {
			path = []string{""}
		}
		cur := root
		for _, p := range path {
			next := cur.children[p]
			if next == nil {
				next = &node{name: p, children: map[string]*node{}}
				cur.children[p] = next
				cur.order = append(cur.order, p)
			}
			cur = next
		}
		cur.row = row
	}

	// compute label column width over the indented tree
	width := len(pathCol.header)
	var measure func(n *node, depth int)
	measure = func(n *node, depth int) {
		for _, name := range n.order {
			c := n.children[name]
			if l := 2*depth + len(name); l > width {
				width = l
			}
			measure(c, depth+1)
		}
	}
	measure(root, 0)

	fmt.Fprintf(w, "%-*s", width, pathCol.header)
	for _, c := range rest {
		fmt.Fprintf(w, " %s", c.header)
	}
	fmt.Fprintln(w)

	var emit func(n *node, depth int) error
	emit = func(n *node, depth int) error {
		names := n.order
		sort.Strings(names)
		for _, name := range names {
			c := n.children[name]
			label := strings.Repeat("  ", depth) + name
			if _, err := fmt.Fprintf(w, "%-*s", width, label); err != nil {
				return err
			}
			for _, col := range rest {
				var val string
				if c.row != nil {
					val = cell(c.row, col.label)
				}
				if _, err := fmt.Fprintf(w, " %*s", len(col.header), val); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
			if err := emit(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return emit(root, 0)
}

// writeCali re-encodes result rows as a .cali stream so query outputs can
// be piped into further queries (the paper's multi-stage workflows).
func writeCali(w io.Writer, reg *attr.Registry, rows []snapshot.FlatRecord) error {
	cw := calformat.NewWriter(w, reg, contexttree.New())
	for _, row := range rows {
		if err := cw.WriteFlat(row); err != nil {
			return err
		}
	}
	return cw.Flush()
}
