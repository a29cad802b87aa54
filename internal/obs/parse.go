package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// A minimal OpenMetrics text-format parser — just enough to consume what
// the Exporter emits (and any Prometheus-style exposition of the same
// shape). cali-top uses it to poll /debug/metrics, and the endpoint smoke
// test uses it to validate that the exporter's output round-trips.

// Sample is one exposition line: a sample name (including any _total /
// _bucket / _sum / _count suffix), its label set, and the value.
type Sample struct {
	Name   string
	Labels map[string]string // nil when the sample has no labels
	Value  float64
}

// Family groups the samples of one metric family with its declared type.
type Family struct {
	Name    string // family name as declared by # TYPE
	Type    string // "counter", "gauge", "histogram", "unknown"
	Samples []Sample
}

// Metrics is a parsed exposition, keyed by family name.
type Metrics struct {
	Families map[string]*Family
	// EOF reports whether the exposition ended with the OpenMetrics
	// "# EOF" terminator (absent from plain Prometheus output).
	EOF bool
}

// ParseMetrics parses an OpenMetrics/Prometheus text exposition. It is
// strict about what the Exporter produces — malformed sample lines are
// errors, not skips — and returns the families with their samples in
// input order.
func ParseMetrics(r io.Reader) (*Metrics, error) {
	m := &Metrics{Families: map[string]*Family{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if m.EOF {
			return nil, fmt.Errorf("openmetrics: line %d: content after # EOF", lineno)
		}
		if strings.HasPrefix(line, "#") {
			if line == "# EOF" {
				m.EOF = true
				continue
			}
			fields := strings.Fields(line)
			// "# TYPE <name> <type>"; HELP/UNIT comments are skipped
			if len(fields) >= 4 && fields[1] == "TYPE" {
				name := fields[2]
				f := m.family(name)
				f.Type = fields[3]
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("openmetrics: line %d: %w", lineno, err)
		}
		f := m.family(familyOf(s.Name))
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// family returns (creating if needed) the named family.
func (m *Metrics) family(name string) *Family {
	f := m.Families[name]
	if f == nil {
		f = &Family{Name: name, Type: "unknown"}
		m.Families[name] = f
	}
	return f
}

// familyOf strips the sample-name suffixes that belong to a family
// (_total, _bucket, _sum, _count).
func familyOf(sample string) string {
	for _, suf := range []string{"_total", "_bucket", "_sum", "_count"} {
		if strings.HasSuffix(sample, suf) {
			return strings.TrimSuffix(sample, suf)
		}
	}
	return sample
}

// parseSample parses `name 42`, `name{k="v",k2="v2"} 42`, with optional
// trailing timestamp (ignored).
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		rest = rest[i+1:]
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[:end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		i := strings.IndexAny(rest, " \t")
		if i < 0 {
			return s, fmt.Errorf("missing value in %q", line)
		}
		s.Name = rest[:i]
		rest = strings.TrimSpace(rest[i:])
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty sample name in %q", line)
	}
	// value, optionally followed by a timestamp field
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("missing value in %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", fields[0], line)
	}
	s.Value = v
	return s, nil
}

// parseValue accepts Go float syntax plus the exposition spellings of
// the infinities and NaN.
func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(v, 64)
}

// parseLabels parses `k="v",k2="v2"` (escaped \" \\ \n inside values).
func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("bad label in %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("unquoted label value for %q", key)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		labels[key] = val.String()
		s = strings.TrimPrefix(strings.TrimSpace(s), ",")
		s = strings.TrimSpace(s)
	}
	return labels, nil
}

// Value returns the single value of a counter or gauge family (the
// _total sample for counters), and ok=false when absent.
func (f *Family) Value() (float64, bool) {
	if f == nil {
		return 0, false
	}
	for _, s := range f.Samples {
		if s.Name == f.Name || s.Name == f.Name+"_total" {
			return s.Value, true
		}
	}
	return 0, false
}

// HistCount returns the _count sample of a histogram family.
func (f *Family) HistCount() (float64, bool) { return f.suffixValue("_count") }

func (f *Family) suffixValue(suf string) (float64, bool) {
	if f == nil {
		return 0, false
	}
	for _, s := range f.Samples {
		if s.Name == f.Name+suf {
			return s.Value, true
		}
	}
	return 0, false
}

// HistQuantile estimates the q-quantile of a histogram family from its
// cumulative le-labeled buckets, interpolating linearly within the bucket
// that contains the target rank — the client-side twin of
// telemetry.HistogramSnapshot.Quantile, used by cali-top to compute
// percentiles from a scrape.
func (f *Family) HistQuantile(q float64) (float64, bool) {
	if f == nil {
		return 0, false
	}
	type bkt struct {
		upper float64
		cum   float64
	}
	var buckets []bkt
	for _, s := range f.Samples {
		if s.Name != f.Name+"_bucket" {
			continue
		}
		le, ok := s.Labels["le"]
		if !ok {
			continue
		}
		u, err := parseValue(le)
		if err != nil {
			continue
		}
		buckets = append(buckets, bkt{upper: u, cum: s.Value})
	}
	if len(buckets) == 0 {
		return 0, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].upper < buckets[j].upper })
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, true
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * total
	prevCum, prevUpper := 0.0, 0.0
	for i, b := range buckets {
		if b.cum >= rank {
			if math.IsInf(b.upper, 1) {
				return prevUpper, true
			}
			if i == 0 || b.cum == prevCum {
				return b.upper, true
			}
			frac := (rank - prevCum) / (b.cum - prevCum)
			return prevUpper + frac*(b.upper-prevUpper), true
		}
		prevCum, prevUpper = b.cum, b.upper
	}
	return prevUpper, true
}
