package main

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
)

// The reference evaluator computes, from the generator's in-memory records
// and without calling internal/query or internal/core, the exact bytes a
// correct query prints. It is deliberately naive: flatten each record to
// named fields, filter, group in a map, sort, render.

// refQuery is a query in plain Go. The aggregation is always the paper's
// sum(sum#time.duration), sum(aggregate.count).
type refQuery struct {
	groupBy []string
	where   func(*record) bool
}

const (
	durColumn   = "sum#sum#time.duration"
	countColumn = "sum#aggregate.count"
)

// refKey is one GROUP BY attribute present in a row.
type refKey struct {
	pos   int // position in the GROUP BY list
	name  string
	text  string
	num   int64
	isNum bool
}

type refRow struct {
	keys  []refKey
	dur   int64
	count uint64
}

// field returns the record's value for an attribute name.
func (r *record) field(name string) (text string, num int64, isNum, ok bool) {
	switch name {
	case "kernel":
		return r.kernel, 0, false, r.kernel != ""
	case "mpi.function":
		return r.mpiFn, 0, false, r.mpiFn != ""
	case "phase":
		return r.phase, 0, false, r.phase != ""
	case "mpi.rank":
		return strconv.Itoa(r.rank), int64(r.rank), true, true
	case "iteration":
		return strconv.Itoa(r.iter), int64(r.iter), true, r.iter >= 0
	}
	return "", 0, false, false
}

// evaluate runs q over recs and returns the rows in output order.
func evaluate(recs []record, q refQuery) []refRow {
	groups := map[string]*refRow{}
	for i := range recs {
		r := &recs[i]
		if q.where != nil && !q.where(r) {
			continue
		}
		var keys []refKey
		var id strings.Builder
		for pos, name := range q.groupBy {
			text, num, isNum, ok := r.field(name)
			if !ok {
				continue
			}
			keys = append(keys, refKey{pos: pos, name: name, text: text, num: num, isNum: isNum})
			id.WriteString(name + "=" + text + "\x00")
		}
		row := groups[id.String()]
		if row == nil {
			row = &refRow{keys: keys}
			groups[id.String()] = row
		}
		row.dur += r.dur
		row.count += r.count
	}
	rows := make([]refRow, 0, len(groups))
	for _, row := range groups {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return keyLess(rows[i].keys, rows[j].keys) })
	return rows
}

// keyLess is the output order of an aggregation without ORDER BY: rows
// compare by their present GROUP BY attributes in GROUP BY order; an
// attribute earlier in the list sorts before a later one, shorter strings
// before longer ones, equal lengths bytewise, integers (all below 128
// here) numerically, and a row whose keys are a prefix of another's first.
func keyLess(a, b []refKey) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		x, y := a[i], b[i]
		switch {
		case x.pos != y.pos:
			return x.pos < y.pos
		case x.isNum:
			if x.num != y.num {
				return x.num < y.num
			}
		case len(x.text) != len(y.text):
			return len(x.text) < len(y.text)
		case x.text != y.text:
			return x.text < y.text
		}
	}
	return len(a) < len(b)
}

// renderTable prints rows as the default table format does: columns in
// order of first appearance across rows, numeric columns right-aligned,
// text columns padded except the last, trailing blanks trimmed.
func renderTable(rows []refRow) []byte {
	type cell struct{ name, text string }
	var columns []string
	numeric := map[string]bool{durColumn: true, countColumn: true}
	seen := map[string]bool{}
	cells := make([][]cell, len(rows))
	for i, row := range rows {
		for _, k := range row.keys {
			cells[i] = append(cells[i], cell{k.name, k.text})
			numeric[k.name] = k.isNum
		}
		cells[i] = append(cells[i],
			cell{durColumn, strconv.FormatInt(row.dur, 10)},
			cell{countColumn, strconv.FormatUint(row.count, 10)})
		for _, c := range cells[i] {
			if !seen[c.name] {
				seen[c.name] = true
				columns = append(columns, c.name)
			}
		}
	}
	if len(columns) == 0 {
		return nil
	}
	lines := make([][]string, 0, len(rows)+1)
	lines = append(lines, columns)
	for _, rc := range cells {
		line := make([]string, len(columns))
		for ci, name := range columns {
			for _, c := range rc {
				if c.name == name {
					line[ci] = c.text
				}
			}
		}
		lines = append(lines, line)
	}
	widths := make([]int, len(columns))
	for _, line := range lines {
		for ci, v := range line {
			widths[ci] = max(widths[ci], len(v))
		}
	}
	var out bytes.Buffer
	for _, line := range lines {
		var sb strings.Builder
		for ci, v := range line {
			if ci > 0 {
				sb.WriteByte(' ')
			}
			pad := strings.Repeat(" ", widths[ci]-len(v))
			if numeric[columns[ci]] {
				sb.WriteString(pad + v)
			} else {
				sb.WriteString(v + pad)
			}
		}
		out.WriteString(strings.TrimRight(sb.String(), " "))
		out.WriteByte('\n')
	}
	return out.Bytes()
}
