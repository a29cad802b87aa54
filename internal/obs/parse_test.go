package obs

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"caligo/internal/telemetry"
)

func TestParseMetricsEscapedLabels(t *testing.T) {
	in := `# TYPE app_info gauge
app_info{path="C:\\tmp\\x",msg="say \"hi\"",multi="a\nb",csv="a,b,c"} 1
`
	m, err := ParseMetrics(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	f := m.Families["app_info"]
	if f == nil || len(f.Samples) != 1 {
		t.Fatalf("families = %+v", m.Families)
	}
	got := f.Samples[0].Labels
	want := map[string]string{
		"path":  `C:\tmp\x`,
		"msg":   `say "hi"`,
		"multi": "a\nb",
		"csv":   "a,b,c",
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("label %s = %q, want %q", k, got[k], v)
		}
	}
}

func TestParseMetricsExponentFloats(t *testing.T) {
	in := `# TYPE big gauge
big 1.5e+09
# TYPE small gauge
small 2E-3
# TYPE neg gauge
neg -3.25e2
`
	m, err := ParseMetrics(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{"big": 1.5e9, "small": 2e-3, "neg": -325}
	for name, want := range checks {
		v, ok := m.Families[name].Value()
		if !ok || v != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, v, ok, want)
		}
	}
}

// TestParseMetricsHistogramMissingSum checks a histogram family whose
// exposition omits _sum (allowed for some producers): buckets and count
// still work, the _sum lookup reports absence instead of zero.
func TestParseMetricsHistogramMissingSum(t *testing.T) {
	in := `# TYPE lat histogram
lat_bucket{le="100"} 3
lat_bucket{le="+Inf"} 5
lat_count 5
`
	m, err := ParseMetrics(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	f := m.Families["lat"]
	if _, ok := f.suffixValue("_sum"); ok {
		t.Error("_sum lookup reported a value for a family without _sum")
	}
	if n, ok := f.HistCount(); !ok || n != 5 {
		t.Errorf("HistCount = %v (ok=%v), want 5", n, ok)
	}
	if q, ok := f.HistQuantile(0.5); !ok || q <= 0 || q > 100 {
		t.Errorf("median = %v (ok=%v), want within (0,100]", q, ok)
	}
}

// TestParseMetricsRandomRoundTrip is a property test: a randomized
// registry scraped through the Exporter and re-parsed must reproduce
// every counter and gauge value exactly and every histogram's count,
// sum, and cumulative bucket structure.
func TestParseMetricsRandomRoundTrip(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		reg := telemetry.NewRegistry()
		type expect struct {
			kind string
			val  float64
			snap telemetry.HistogramSnapshot
		}
		want := map[string]expect{}
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			name := "rt.metric." + string(rune('a'+i))
			switch rng.Intn(3) {
			case 0:
				v := uint64(rng.Int63n(1 << 40))
				reg.Counter(name).Add(v)
				want[SanitizeName(name)] = expect{kind: "counter", val: float64(v)}
			case 1:
				v := rng.Int63n(1<<40) - (1 << 39)
				reg.Gauge(name).Set(v)
				want[SanitizeName(name)] = expect{kind: "gauge", val: float64(v)}
			default:
				h := reg.Histogram(name)
				obs := 1 + rng.Intn(200)
				for j := 0; j < obs; j++ {
					h.Observe(rng.Int63n(1<<30) - (1 << 10))
				}
				want[SanitizeName(name)] = expect{kind: "histogram", snap: h.Snapshot()}
			}
		}

		var buf bytes.Buffer
		if err := NewExporter(reg).Write(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := ParseMetrics(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, buf.String())
		}
		if !m.EOF {
			t.Fatalf("trial %d: exposition missing # EOF", trial)
		}
		for name, exp := range want {
			f := m.Families[name]
			if f == nil {
				t.Fatalf("trial %d: scrape missing family %s", trial, name)
			}
			if f.Type != exp.kind {
				t.Errorf("trial %d: %s type = %s, want %s", trial, name, f.Type, exp.kind)
			}
			switch exp.kind {
			case "counter", "gauge":
				v, ok := f.Value()
				if !ok || v != exp.val {
					t.Errorf("trial %d: %s = %v (ok=%v), want %v", trial, name, v, ok, exp.val)
				}
			case "histogram":
				cnt, ok := f.HistCount()
				if !ok || cnt != float64(exp.snap.Count) {
					t.Errorf("trial %d: %s count = %v, want %d", trial, name, cnt, exp.snap.Count)
				}
				sum, ok := f.suffixValue("_sum")
				if !ok || sum != float64(exp.snap.Sum) {
					t.Errorf("trial %d: %s sum = %v, want %d", trial, name, sum, exp.snap.Sum)
				}
				// buckets are cumulative and must end at count on +Inf
				var lastCum, lastUpper float64
				lastUpper = math.Inf(-1)
				var infCum float64
				infSeen := false
				for _, s := range f.Samples {
					if s.Name != name+"_bucket" {
						continue
					}
					u, err := parseValue(s.Labels["le"])
					if err != nil {
						t.Fatalf("trial %d: bad le %q", trial, s.Labels["le"])
					}
					if u <= lastUpper {
						t.Errorf("trial %d: %s buckets not ascending (%v after %v)", trial, name, u, lastUpper)
					}
					if s.Value < lastCum {
						t.Errorf("trial %d: %s buckets not cumulative", trial, name)
					}
					lastUpper, lastCum = u, s.Value
					if math.IsInf(u, 1) {
						infCum, infSeen = s.Value, true
					}
				}
				if !infSeen || infCum != float64(exp.snap.Count) {
					t.Errorf("trial %d: %s +Inf bucket = %v (seen=%v), want %d",
						trial, name, infCum, infSeen, exp.snap.Count)
				}
			}
		}
	}
}
