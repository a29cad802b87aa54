package caligo

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"caligo/caliper"
	_ "caligo/calql"
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

// TestCalqlSurface: calql has Parse and one way to query files, Run, beside
// QueryChannel and QueryRecords for data already in memory, and three
// wrappers only bench/ may call. A new exported entry point, or a caller
// of a wrapper outside bench/, fails here.
func TestCalqlSurface(t *testing.T) {
	wrappers := []string{"QueryFilesJobsOpt", "QueryFilesOpt", "QueryFilesParallelOpt"}
	want := append([]string{"Parse", "QueryChannel", "QueryRecords", "Run"}, wrappers...)
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
		t.Errorf("calql exports functions %v, want %v (Parse and the query runners)", exported, want)
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

// reachableAllowList names the exported names TestReachableSurface accepts
// without a non-test caller, each with its reason: the caliper API an
// instrumented application calls, and hooks other packages' tests need.
var reachableAllowList = map[string]string{
	"caliper.Channel.SetGlobal":             "application API: per-run metadata (ExampleChannel_SetGlobal)",
	"caliper.Preset":                        "application API: named configurations for NewChannel (README, ExamplePreset)",
	"caliper.SetTracing":                    "application API: the span-collection switch (docs/OBSERVABILITY.md)",
	"caliper.Thread.Snapshot":               "application API: an explicit snapshot, Caliper's push-snapshot",
	"caliper.WriteTraceReport":              "application API: the span summary beside WriteTrace (docs/OBSERVABILITY.md)",
	"internal/calql.MustParse":              "test hook: static queries in the query, pquery and paradis tests",
	"internal/contexttree.Tree.GetPath":     "test hook: builds a context path for the snapshot and calformat tests",
	"internal/obs.ResetQueryStats":          "test hook: clears the query log for the calql tests",
	"internal/obs.SampleRuntimeOnce":        "test hook: fills the runtime gauges for the cali-top tests",
	"internal/obs.SetLogEnabled":            "test hook: scopes the logging switch in the caliper and root tests",
	"internal/snapshot.FlatRecord.PathOf":   "test hook: renders a nested path in the caliper, core and calql tests",
	"internal/snapshot.FlatRecord.ValuesOf": "test hook: reads a nested stack in the blackboard, calformat and calql tests",
	"internal/telemetry.Reset":              "test hook: zeroes the registry between the command tests",
	"internal/testutil.RaceEnabled":         "test hook: allocation budgets skip themselves under -race",
	"internal/trace.Reset":                  "test hook: empties the span ring for the cali-query and pquery tests",
}

// TestReachableSurface: every exported package-level name and method in
// internal/..., caliper and calql is referenced from a non-test file, or
// is on reachableAllowList with a reason. It type-checks the non-test files
// (go list's GoFiles, so build tags hold) of every package in this module
// and in bench/; bench/ is a module of its own that calls internal/...
// directly, so a name only the benchmark uses is reached. A name counts as
// reached when a non-test file uses it (the origin of a generic instance),
// or, for a method, when its type implements an interface that non-test
// code uses, or one of fmt.Stringer, error, io.Reader, io.Writer and
// slog.Handler, that declares it, or when it overrides a method its type
// would otherwise promote from an embedded field (deleting it would keep
// the name and change what it does). A name only tests use fails here:
// delete it, or move it into its package's _test.go files.
func TestReachableSurface(t *testing.T) {
	pkgs := listPackages(t, ".")
	for _, p := range listPackages(t, "bench") {
		if !slices.ContainsFunc(pkgs, func(q goPackage) bool { return q.ImportPath == p.ImportPath }) {
			pkgs = append(pkgs, p)
		}
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	reached := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	var targets []*types.Package
	bodies := map[types.Object][2]token.Pos{} // a function's own body does not reach it
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		if p.ImportPath == "caligo/caliper" || p.ImportPath == "caligo/calql" || strings.HasPrefix(p.ImportPath, "caligo/internal/") {
			targets = append(targets, pkg)
		}
		for _, f := range files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					bodies[info.Defs[fn.Name]] = [2]token.Pos{fn.Pos(), fn.End()}
				}
			}
		}
		use := func(id token.Pos, obj types.Object) {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if b, ok := bodies[obj]; ok && b[0] <= id && id < b[1] {
				return
			}
			reached[obj] = true
		}
		for id, obj := range info.Uses {
			use(id.Pos(), obj)
			if sig, ok := obj.Type().(*types.Signature); ok {
				for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tuple.Len(); i++ {
						addIface(tuple.At(i).Type())
					}
				}
			}
		}
		for sel, s := range info.Selections {
			use(sel.Sel.Pos(), s.Obj())
		}
		for _, tv := range info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	for _, iface := range [][2]string{{"fmt", "Stringer"}, {"io", "Reader"}, {"io", "Writer"}, {"log/slog", "Handler"}} {
		p, err := imp.Import(iface[0])
		if err != nil {
			t.Fatal(err)
		}
		addIface(p.Scope().Lookup(iface[1]).Type())
	}
	addIface(types.Universe.Lookup("error").Type())

	var unreached []string
	for _, pkg := range targets {
		prefix := strings.TrimPrefix(pkg.Path(), "caligo/") + "."
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !reached[obj] {
				unreached = append(unreached, prefix+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !reached[m] && !viaInterface(named, m.Name(), ifaces) && !overrides(named, m.Name()) {
					unreached = append(unreached, prefix+name+"."+m.Name())
				}
			}
		}
	}
	slices.Sort(unreached)

	for _, name := range unreached {
		if _, ok := reachableAllowList[name]; !ok {
			t.Errorf("%s: exported, but no non-test file in this module or bench/ reaches it: delete it, or move it into a _test.go file", name)
		}
	}
	for name := range reachableAllowList {
		if _, found := slices.BinarySearch(unreached, name); !found {
			t.Errorf("%s is on reachableAllowList, but is reached or no longer exists: drop its line", name)
		}
	}
}

// viaInterface reports whether named or *named implements an interface in
// ifaces that declares a method called method.
func viaInterface(named *types.Named, method string, ifaces map[*types.Interface]bool) bool {
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// overrides reports whether named's method shadows one that an embedded
// field of its struct type would otherwise promote.
func overrides(named *types.Named, method string) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Embedded() {
			if obj, _, _ := types.LookupFieldOrMethod(f.Type(), true, f.Pkg(), method); obj != nil {
				if _, ok := obj.(*types.Func); ok {
					return true
				}
			}
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goPackage is the part of go list's package record TestReachableSurface
// reads.
type goPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// listPackages lists the packages of the module in dir and everything
// they depend on, dependencies first, with export data for the standard
// library.
func listPackages(t *testing.T, dir string) []goPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []goPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p goPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}
