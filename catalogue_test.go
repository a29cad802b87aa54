package caligo

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"caligo/caliper"
	_ "caligo/calql"
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

// TestDebugEndpointCatalogue: a plain GET of every /debug path in the
// endpoint list of docs/OBSERVABILITY.md answers something other than 404
// from caliper.DebugHandler, and the routes of the removed telemetry-history
// and self-profiling subsystems answer 404.
func TestDebugEndpointCatalogue(t *testing.T) {
	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(doc, []byte("serves, on its own mux"))
	end := bytes.Index(doc, []byte("Every endpoint is GET-only"))
	if start < 0 || end < start {
		t.Fatal("docs/OBSERVABILITY.md: endpoint list not found")
	}
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^- `(/debug/[a-z/]*)").FindAllSubmatch(doc[start:end], -1) {
		documented = append(documented, string(m[1]))
	}
	if len(documented) < 5 {
		t.Fatalf("endpoint list names only %v", documented)
	}
	handler := caliper.DebugHandler()
	get := func(path string) int {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	for _, path := range documented {
		if code := get(path); code == http.StatusNotFound {
			t.Errorf("docs/OBSERVABILITY.md lists %s, which answers GET with 404", path)
		}
	}
	for _, path := range []string{"/debug/history", "/debug/cluster", "/debug/selfprofile"} {
		if code := get(path); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
	}
}

// TestCalqlSurface: calql has one way to query files, Run, beside
// QueryChannel and QueryRecords for data already in memory, and three
// wrappers only bench/ may call. A new exported entry point, or a caller
// of a wrapper outside bench/, fails here.
func TestCalqlSurface(t *testing.T) {
	wrappers := []string{"QueryFilesJobsOpt", "QueryFilesOpt", "QueryFilesParallelOpt"}
	want := append([]string{"MustParse", "Parse", "QueryChannel", "QueryRecords", "Run"}, wrappers...)
	slices.Sort(want)

	fset := token.NewFileSet()
	sources, err := filepath.Glob("calql/*.go")
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, path := range sources {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				exported = append(exported, fn.Name.Name)
			}
		}
	}
	slices.Sort(exported)
	if !slices.Equal(exported, want) {
		t.Errorf("calql exports functions %v, want %v (Parse, MustParse and the query runners)", exported, want)
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || path == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || filepath.Ext(path) != ".go" || path == filepath.Join("calql", "calql.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			if slices.Contains(wrappers, name) {
				t.Errorf("%s calls %s, a wrapper kept for bench/ only: call calql.Run", fset.Position(call.Pos()), name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
