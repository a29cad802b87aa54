package prof_test

import (
	. "caligo/internal/prof"
	"context"

	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"caligo/calql"
	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
)

// writeCali converts p into a .cali file under dir and returns its path.
func writeCali(t *testing.T, p *Profile, dir string) (string, ConvertStats) {
	t.Helper()
	var buf bytes.Buffer
	stats, err := Convert(p, &buf)
	if err != nil {
		t.Fatalf("Convert: %v", err)
	}
	path := filepath.Join(dir, "profile.cali")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, stats
}

func TestConvertRoundTrip(t *testing.T) {
	p, _ := synthProfile(t)
	var buf bytes.Buffer
	stats, err := Convert(p, &buf)
	if err != nil {
		t.Fatalf("Convert: %v", err)
	}
	if stats.Samples != 4 || stats.Records != 4 {
		t.Errorf("stats = %+v", stats)
	}
	wantMetrics := []string{"cpu.samples", "cpu.ns"}
	if len(stats.Metrics) != 2 || stats.Metrics[0] != wantMetrics[0] || stats.Metrics[1] != wantMetrics[1] {
		t.Errorf("metrics = %v, want %v", stats.Metrics, wantMetrics)
	}

	reg := attr.NewRegistry()
	tree := contexttree.New()
	r := calformat.NewReader(&buf, reg, tree)
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 4", len(recs))
	}
	fn, ok := reg.Find(AttrFunction)
	if !ok {
		t.Fatal("prof.function attribute missing from stream")
	}
	if !fn.IsNested() {
		t.Error("prof.function lost the nested property")
	}
	byPath := map[string][2]int64{}
	for _, rec := range recs {
		samples, _ := rec.GetByName("cpu.samples")
		ns, _ := rec.GetByName("cpu.ns")
		byPath[rec.PathOf(fn.ID(), "/")] = [2]int64{samples.AsInt(), ns.AsInt()}
	}
	wants := map[string][2]int64{
		"main":         {10, 1000},
		"main/foo":     {20, 2000},
		"main/foo/bar": {40, 4000},
		"main/baz":     {5, 500},
	}
	for path, w := range wants {
		if byPath[path] != w {
			t.Errorf("%s: (samples,ns) = %v, want %v", path, byPath[path], w)
		}
	}
	// leaf file/line ride along as immediates
	for _, rec := range recs {
		if rec.PathOf(fn.ID(), "/") == "main/foo/bar" {
			if v, ok := rec.GetByName(AttrFile); !ok || v.String() != "bar.go" {
				t.Errorf("prof.file = %v", v)
			}
			if v, ok := rec.GetByName(AttrLine); !ok || v.AsInt() != 30 {
				t.Errorf("prof.line = %v", v)
			}
		}
	}
	// profile metadata arrives as globals
	foundDuration := false
	for _, g := range r.Globals() {
		if g.Attr.Name() == "prof.duration.ns" && g.Value.AsInt() == 1e9 {
			foundDuration = true
		}
	}
	if !foundDuration {
		t.Error("prof.duration.ns global missing")
	}
}

// flatCum hand-computes per-function flat (leaf-attributed) and
// cumulative (any-frame-attributed, counted once per sample) tallies from
// the raw samples — the same numbers pprof's top view reports.
func flatCum(p *Profile, sampleIdx int) (flat, cum map[string]int64) {
	flat = map[string]int64{}
	cum = map[string]int64{}
	for _, s := range p.Sample {
		frames := p.Frames(s)
		if len(frames) == 0 {
			continue
		}
		v := s.Value[sampleIdx]
		flat[frames[len(frames)-1].Name] += v
		seen := map[string]bool{}
		for _, f := range frames {
			if !seen[f.Name] {
				seen[f.Name] = true
				cum[f.Name] += v
			}
		}
	}
	return flat, cum
}

// TestCalQLEquivalenceSynthetic checks that a CalQL aggregation over the
// converted records reproduces the hand-computed per-function flat and
// cumulative tallies on the synthetic profile.
func TestCalQLEquivalenceSynthetic(t *testing.T) {
	p, _ := synthProfile(t)
	checkCalQLEquivalence(t, p)
}

// TestCalQLEquivalenceGoldenCPU is the end-to-end proof on real data: a
// CPU profile of this test process, converted to .cali, must yield the
// same per-function totals through CalQL as pprof's own sample tallies.
func TestCalQLEquivalenceGoldenCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping 1s profile window")
	}
	p := captureGoldenCPU(t)
	checkCalQLEquivalence(t, p)
}

func checkCalQLEquivalence(t *testing.T, p *Profile) {
	t.Helper()
	path, stats := writeCali(t, p, t.TempDir())
	if stats.Records == 0 {
		t.Fatal("conversion produced no records")
	}
	res, err := calql.Run(context.Background(), "SELECT prof.function, sum(cpu.samples), inclusive_sum(cpu.samples) "+
		"GROUP BY prof.function", []string{path}, calql.Options{})
	if err != nil {
		t.Fatalf("CalQL query: %v", err)
	}
	fn, ok := res.Reg.Find(AttrFunction)
	if !ok {
		t.Fatal("prof.function not in result registry")
	}

	// one query row per distinct calling-context path
	type qrow struct {
		path    []string
		excl    int64
		incl    int64
		hasExcl bool
		hasIncl bool
	}
	var qrows []qrow
	for _, row := range res.Rows {
		vals := row.ValuesOf(fn.ID())
		if len(vals) == 0 {
			continue
		}
		qr := qrow{path: make([]string, len(vals))}
		for i, v := range vals {
			qr.path[i] = v.String()
		}
		if v, ok := row.GetByName("sum#cpu.samples"); ok {
			qr.excl, qr.hasExcl = v.AsInt(), true
		}
		if v, ok := row.GetByName("inclusive_sum#cpu.samples"); ok {
			qr.incl, qr.hasIncl = v.AsInt(), true
		}
		qrows = append(qrows, qr)
	}

	// flat(f): exclusive sum over rows with leaf f. cum(f): exclusive sum
	// over rows whose path contains f, counted once per row — exact against
	// pprof's once-per-sample rule even under recursion, because rows group
	// samples by identical stack.
	gotFlat := map[string]int64{}
	gotCum := map[string]int64{}
	for _, qr := range qrows {
		gotFlat[qr.path[len(qr.path)-1]] += qr.excl
		seen := map[string]bool{}
		for _, f := range qr.path {
			if !seen[f] {
				seen[f] = true
				gotCum[f] += qr.excl
			}
		}
	}

	wantFlat, wantCum := flatCum(p, 0)
	for f, w := range wantFlat {
		if gotFlat[f] != w {
			t.Errorf("flat[%s] = %d, want %d", f, gotFlat[f], w)
		}
	}
	for f, w := range wantCum {
		if gotCum[f] != w {
			t.Errorf("cum[%s] = %d, want %d", f, gotCum[f], w)
		}
	}

	// inclusive_sum semantics, checked row by row: a path's inclusive value
	// must equal the exclusive total of every path extending it (itself
	// included). Functions appearing only as interior frames have no row of
	// their own — their subtree totals are covered by the cum check above.
	for _, qr := range qrows {
		if !qr.hasIncl || !qr.hasExcl {
			t.Errorf("row %v missing sum/inclusive_sum values", qr.path)
			continue
		}
		var want int64
		for _, other := range qrows {
			if pathHasPrefix(other.path, qr.path) {
				want += other.excl
			}
		}
		if qr.incl != want {
			t.Errorf("inclusive_sum[%v] = %d, want %d (sum over extensions)",
				qr.path, qr.incl, want)
		}
	}

	// total flat across all functions equals total samples in the profile
	var gotTotal, wantTotal int64
	for _, v := range gotFlat {
		gotTotal += v
	}
	for _, s := range p.Sample {
		if len(s.LocationID) > 0 {
			wantTotal += s.Value[0]
		}
	}
	if gotTotal != wantTotal {
		t.Errorf("total samples through CalQL = %d, want %d", gotTotal, wantTotal)
	}
}

// pathHasPrefix reports whether path starts with the full prefix.
func pathHasPrefix(path, prefix []string) bool {
	if len(path) < len(prefix) {
		return false
	}
	for i, f := range prefix {
		if path[i] != f {
			return false
		}
	}
	return true
}

// TestCalQLTreeFormat smoke-checks the flagship query from the issue:
// FORMAT tree output over converted records renders the calling-context
// hierarchy.
func TestCalQLTreeFormat(t *testing.T) {
	p, _ := synthProfile(t)
	path, _ := writeCali(t, p, t.TempDir())
	res, err := calql.Run(context.Background(), "SELECT prof.function, inclusive_sum(cpu.samples) "+
		"GROUP BY prof.function FORMAT tree", []string{path}, calql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"main", "foo", "bar", "baz", "75", "60"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
}

// parseFolded is a strict parser for the folded-stacks format: each line
// must be "frame(;frame)* value" with a single space separating the stack
// from the integer value and no empty frames. It returns per-stack values.
func parseFolded(t *testing.T, text string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("folded line %d: empty", ln+1)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("folded line %d: no value separator: %q", ln+1, line)
		}
		stack, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			t.Fatalf("folded line %d: bad value %q: %v", ln+1, valStr, err)
		}
		if strings.Contains(stack, " ") {
			t.Fatalf("folded line %d: space inside stack: %q", ln+1, stack)
		}
		for _, frame := range strings.Split(stack, ";") {
			if frame == "" {
				t.Fatalf("folded line %d: empty frame in %q", ln+1, stack)
			}
		}
		if _, dup := out[stack]; dup {
			t.Fatalf("folded line %d: duplicate stack %q", ln+1, stack)
		}
		out[stack] = v
	}
	return out
}

func TestWriteFolded(t *testing.T) {
	p, _ := synthProfile(t)
	var buf bytes.Buffer
	if err := WriteFolded(p, &buf, 0); err != nil {
		t.Fatal(err)
	}
	got := parseFolded(t, buf.String())
	wants := map[string]int64{
		"main":         10,
		"main;foo":     20,
		"main;foo;bar": 40,
		"main;baz":     5,
	}
	if len(got) != len(wants) {
		t.Fatalf("folded stacks = %v, want %v", got, wants)
	}
	for st, w := range wants {
		if got[st] != w {
			t.Errorf("folded[%s] = %d, want %d", st, got[st], w)
		}
	}
	if err := WriteFolded(p, &buf, 99); err == nil {
		t.Error("out-of-range sample index: expected error")
	}
}

// TestWriteFoldedGolden validates the folded output of a real CPU profile
// with the strict parser and checks value conservation.
func TestWriteFoldedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping 1s profile window")
	}
	p := captureGoldenCPU(t)
	var buf bytes.Buffer
	if err := WriteFolded(p, &buf, 0); err != nil {
		t.Fatal(err)
	}
	got := parseFolded(t, buf.String())
	var gotTotal, wantTotal int64
	for _, v := range got {
		gotTotal += v
	}
	for _, s := range p.Sample {
		if len(s.LocationID) > 0 {
			wantTotal += s.Value[0]
		}
	}
	if gotTotal != wantTotal {
		t.Errorf("folded total = %d, want %d", gotTotal, wantTotal)
	}
}

// TestFoldedPathologicalNames: frame names with the format's separator
// characters must not break the line structure.
func TestFoldedPathologicalNames(t *testing.T) {
	pb := newProfileBuilder()
	pb.sampleType("samples", "count")
	pb.function(1, "go func (x int)", "a.go")
	pb.function(2, "weird;name", "b.go")
	pb.location(1, [2]uint64{1, 1})
	pb.location(2, [2]uint64{2, 2})
	pb.sample([]uint64{2, 1}, []int64{3})
	p, err := Parse(pb.build())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFolded(p, &buf, 0); err != nil {
		t.Fatal(err)
	}
	got := parseFolded(t, buf.String())
	if len(got) != 1 {
		t.Fatalf("folded = %v", got)
	}
	for st, v := range got {
		if v != 3 {
			t.Errorf("value = %d", v)
		}
		if strings.Count(st, ";") != 1 {
			t.Errorf("stack separator count wrong: %q", st)
		}
	}
}

func TestMetricNameFallback(t *testing.T) {
	cases := []struct {
		vt   ValueType
		want string
	}{
		{ValueType{"samples", "count"}, "cpu.samples"},
		{ValueType{"inuse_space", "bytes"}, "heap.inuse.bytes"},
		{ValueType{"goroutine", "count"}, "goroutines"},
		{ValueType{"exotic", "bytes"}, "prof.exotic.bytes"},
		{ValueType{"exotic", "nanoseconds"}, "prof.exotic.ns"},
		{ValueType{"exotic", "count"}, "prof.exotic"},
		{ValueType{"weird type!", "widgets"}, "prof.weird_type_.widgets"},
		{ValueType{"", ""}, "prof.unknown"},
	}
	for _, c := range cases {
		if got := MetricName(c.vt); got != c.want {
			t.Errorf("MetricName(%v) = %q, want %q", c.vt, got, c.want)
		}
	}
}

// TestConvertPathologicalFrameNames drives real-world symbol shapes
// (generics, closures, unicode, and hostile control characters) through
// convert → write → read → query.
func TestConvertPathologicalFrameNames(t *testing.T) {
	names := []string{
		"main.(*Server).ServeHTTP",
		"sort.Slice[go.shape.int]",
		"main.run.func2.1",
		"type..eq.main.T",
		"caligo/internal/query.(*Engine).Write",
		"fn with spaces, commas",
		"equals=colon:semicolon;",
		"unicode.λ.функция.関数",
		"tab\there",
		"newline\nin\nname",
	}
	pb := newProfileBuilder()
	pb.sampleType("samples", "count")
	for i, n := range names {
		pb.function(uint64(i+1), n, fmt.Sprintf("file%d.go", i))
		pb.location(uint64(i+1), [2]uint64{uint64(i + 1), uint64(i + 1)})
	}
	// one sample through the whole pathological stack (leaf-first ids)
	ids := make([]uint64, len(names))
	for i := range ids {
		ids[i] = uint64(len(names) - i)
	}
	pb.sample(ids, []int64{1})
	p, err := Parse(pb.build())
	if err != nil {
		t.Fatal(err)
	}
	path, stats := writeCali(t, p, t.TempDir())
	if stats.Records != 1 {
		t.Fatalf("records = %d", stats.Records)
	}
	res, err := calql.Run(context.Background(), "SELECT prof.function, inclusive_sum(cpu.samples) GROUP BY prof.function", []string{path}, calql.Options{})
	if err != nil {
		t.Fatalf("query over pathological names: %v", err)
	}
	fn, _ := res.Reg.Find(AttrFunction)
	found := false
	for _, row := range res.Rows {
		vals := row.ValuesOf(fn.ID())
		if len(vals) == len(names) {
			found = true
			for i, v := range vals {
				if v.String() != names[i] {
					t.Errorf("frame %d = %q, want %q", i, v.String(), names[i])
				}
			}
		}
	}
	if !found {
		t.Error("full pathological path did not survive the round trip")
	}
}

func BenchmarkConvert(b *testing.B) {
	// a synthetic profile shaped like a real CPU capture: 64 functions,
	// 1000 samples over stacks up to 16 deep
	pb := newProfileBuilder()
	pb.sampleType("samples", "count")
	pb.sampleType("cpu", "nanoseconds")
	for i := 1; i <= 64; i++ {
		pb.function(uint64(i), fmt.Sprintf("pkg.func%02d", i), fmt.Sprintf("f%02d.go", i))
		pb.location(uint64(i), [2]uint64{uint64(i), uint64(i)})
	}
	for i := 0; i < 1000; i++ {
		depth := 1 + i%16
		ids := make([]uint64, depth)
		for j := 0; j < depth; j++ {
			ids[j] = uint64(1 + (i+j)%64)
		}
		pb.sample(ids, []int64{1, 10000})
	}
	p, err := Parse(pb.build())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := Convert(p, &buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkParse(b *testing.B) {
	_, raw := synthProfileB(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// synthProfileB mirrors synthProfile for benchmarks.
func synthProfileB(b *testing.B) (*Profile, []byte) {
	b.Helper()
	pb := newProfileBuilder()
	pb.sampleType("samples", "count")
	pb.function(1, "main", "main.go")
	pb.location(1, [2]uint64{1, 10})
	for i := 0; i < 100; i++ {
		pb.sample([]uint64{1}, []int64{1})
	}
	raw := pb.build()
	p, err := Parse(raw)
	if err != nil {
		b.Fatal(err)
	}
	return p, raw
}
