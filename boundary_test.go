package mnsim

import (
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const (
	modulePath = "mnsim"
	telemetry  = "mnsim/internal/telemetry"
	denseTest  = "mnsim/internal/linalg/densetest"
)

// moduleImports returns the module-internal imports of the package at
// importPath, from its non-test files.
func moduleImports(t *testing.T, importPath string) []string {
	t.Helper()
	dir := filepath.FromSlash(strings.TrimPrefix(importPath, modulePath+"/"))
	pkg, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatalf("%s: %v", importPath, err)
	}
	var out []string
	for _, imp := range pkg.Imports {
		if strings.HasPrefix(imp, modulePath+"/") {
			out = append(out, imp)
		}
	}
	return out
}

// reachesTelemetry reports the import chain from importPath to the
// telemetry package, or nil when there is none.
func reachesTelemetry(t *testing.T, importPath string, seen map[string]bool) []string {
	t.Helper()
	if importPath == telemetry {
		return []string{importPath}
	}
	if seen[importPath] {
		return nil
	}
	seen[importPath] = true
	for _, imp := range moduleImports(t, importPath) {
		if chain := reachesTelemetry(t, imp, seen); chain != nil {
			return append([]string{importPath}, chain...)
		}
	}
	return nil
}

// The numeric kernels and the worker pool import no telemetry, directly
// or through another package, and neither do the circuit package's
// numeric files: the solver core is plain numerics, and circuit's
// observe.go is the one place a solve or a settling run is observed. The
// dense LU oracle in densetest is imported only by tests.
func TestImportBoundaries(t *testing.T) {
	for _, pkg := range []string{"linalg", "device", "crossbar", "pool"} {
		if chain := reachesTelemetry(t, modulePath+"/internal/"+pkg, map[string]bool{}); chain != nil {
			t.Errorf("internal/%s reaches telemetry: %s", pkg, strings.Join(chain, " -> "))
		}
	}
	for _, file := range []string{"circuit.go", "transient.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "circuit", file), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(imp, modulePath+"/") {
				continue
			}
			if chain := reachesTelemetry(t, imp, map[string]bool{}); chain != nil {
				t.Errorf("internal/circuit/%s reaches telemetry: %s", file, strings.Join(chain, " -> "))
			}
		}
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		// mnsimbench is a module of its own.
		if name := d.Name(); name == "testdata" || name == "mnsimbench" || (strings.HasPrefix(name, ".") && path != ".") {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		for _, imp := range pkg.Imports {
			if imp == denseTest {
				t.Errorf("%s imports %s outside its tests", path, denseTest)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
