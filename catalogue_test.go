package caligo

import (
	"os"
	"regexp"
	"slices"
	"testing"

	_ "caligo/caliper"
	_ "caligo/calql"
	_ "caligo/internal/obs/history"
	_ "caligo/internal/prof"
	_ "caligo/internal/rnet"
	"caligo/internal/telemetry"
)

// TestMetricCatalogue: every metric the library registers is in the
// catalogue table of docs/OBSERVABILITY.md, and every metric the table
// names is registered — the catalogue cannot drift from the code in either
// direction.
func TestMetricCatalogue(t *testing.T) {
	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(caligo\\.[^`]+)` \\|").FindAllSubmatch(doc, -1) {
		documented = append(documented, string(m[1]))
	}
	var registered []string
	for _, m := range telemetry.Export() {
		registered = append(registered, m.Name)
	}
	slices.Sort(documented)
	for _, name := range registered {
		if _, found := slices.BinarySearch(documented, name); !found {
			t.Errorf("metric %s is registered but not in the docs/OBSERVABILITY.md catalogue", name)
		}
	}
	slices.Sort(registered)
	for _, name := range documented {
		if _, found := slices.BinarySearch(registered, name); !found {
			t.Errorf("docs/OBSERVABILITY.md catalogues %s, which nothing registers", name)
		}
	}
}
