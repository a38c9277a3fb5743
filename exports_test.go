package mnsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportExempt names the exported internal functions and methods that
// may have no non-test caller, each with the reason it stays.
var exportExempt = map[string]string{
	// Interface methods: the standard library calls them through the
	// interface, never by name.
	"Error":         "error",
	"String":        "fmt.Stringer",
	"Unwrap":        "errors.Unwrap",
	"MarshalText":   "encoding.TextMarshaler",
	"UnmarshalText": "encoding.TextUnmarshaler",
	"Import":        "types.Importer",

	"LayoutCalibration": "Fig. 6's layout fit: BenchmarkFig6 and the golden pin read it",
	"Conductance":       "the reference the KCL and restamp tests hold the fused stamp to",
	"WriteSnapshot":     "the fixture writer of the replay and circuit fuzz tests",
	"TableII":           "mnsimbench's bench_test.go pins Table II through it",
}

// exportExemptDirs are non-test packages that only tests import.
var exportExemptDirs = map[string]string{
	"internal/linalg/densetest": "dense LU, the test-only oracle for the sparse solvers",
}

// TestExportsHaveCallers fails when an exported function or method
// declared in non-test internal/ code is named by no non-test file of
// the module or of mnsimbench/. It matches identifiers by name only, so
// it misses an unused export that shares its name with a used one; it
// never flags a used one.
func TestExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	type decl struct{ name, pos string }
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && path != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		declares := strings.HasPrefix(dir, "internal/") && exportExemptDirs[dir] == ""
		names := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				names[fn.Name] = true // a function's own name is not a use of it
				if declares && fn.Name.IsExported() {
					decls = append(decls, decl{fn.Name.Name, fset.Position(fn.Pos()).String()})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, d := range decls {
		if !used[d.name] && exportExempt[d.name] == "" {
			unused = append(unused, d.pos+": "+d.name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no non-test caller: give it one, move it into a _test.go file, or delete it", u)
	}
}
