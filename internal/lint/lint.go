// Package lint is mnsim's project-specific static-analysis framework.
//
// PRs 2–4 built their headline guarantees on conventions: parallel sweeps
// are bit-identical only if every random draw flows through an injected,
// splitmix64-seeded *rand.Rand; flight-recorder replay is bit-identical
// only if the numerical packages never read the wall clock; ...Context
// entry points cancel promptly only if every long loop checks ctx. This
// package turns each of those conventions into a mechanically enforced
// rule, using nothing beyond the standard library: go/parser for syntax,
// go/types (with the source importer) for name resolution, and a small
// runner that understands //lint:ignore suppressions.
//
// Diagnostics print as "file:line:col: [name] message"; cmd/mnsim-lint is
// the CLI front end and CI runs it on every push.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding, positioned and attributed to an analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named rule run over every loaded package.
type Analyzer struct {
	Name string
	// Doc is the one-line description shown by mnsim-lint -help and in
	// the README's analyzer table.
	Doc string
	// TestExempt drops diagnostics positioned in _test.go files: tests
	// may time, print, and draw throwaway randomness.
	TestExempt bool
	Run        func(*Pass)
}

// Pass hands one analyzer a fully type-checked package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Path is the package's import path (fixtures may use fake paths to
	// exercise path-scoped analyzers such as noclock).
	Path string
	// Dir is the package's source directory on disk, for analyzers (such
	// as noalloc) that shell out to the go tool for the same package.
	Dir string

	analyzer *Analyzer
	sink     *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Options configures one lint run.
type Options struct {
	// Dir is the directory patterns are resolved from; it must sit
	// inside the module. Empty means the current directory.
	Dir string
	// Patterns are package patterns: "./...", "./internal/circuit", or
	// plain relative directories. Empty means "./...".
	Patterns []string
	// Tests also loads and analyzes _test.go files (TestExempt
	// analyzers still skip diagnostics positioned in them).
	Tests bool
	// Strict additionally flags stale //lint:ignore comments that
	// suppressed nothing.
	Strict bool
	// Analyzers defaults to All().
	Analyzers []*Analyzer
}

// AnalyzerStat is one analyzer's per-run accounting: how many of the
// surviving diagnostics it produced and how much wall time its Run
// consumed across all packages.
type AnalyzerStat struct {
	Name     string
	Findings int
	Wall     time.Duration
}

// Result is the outcome of a lint run.
type Result struct {
	// Diagnostics are the surviving findings, sorted by position and
	// deduplicated: two findings identical in (position, analyzer,
	// message) — e.g. the same locked-here site reported once per escaping
	// path — collapse to one.
	Diagnostics []Diagnostic
	// Stats has one entry per analyzer that ran, in All() order.
	Stats []AnalyzerStat
}

// Run loads every package matched by opt.Patterns, runs the analyzers,
// applies //lint:ignore suppressions, and returns the surviving
// diagnostics. A non-nil error means the run itself failed (unreadable
// tree, type errors); findings are not errors.
func Run(opt Options) (*Result, error) {
	dir := opt.Dir
	if dir == "" {
		dir = "."
	}
	patterns := opt.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	analyzers := opt.Analyzers
	if len(analyzers) == 0 {
		analyzers = All()
	}

	mod, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(dir, mod, patterns)
	if err != nil {
		return nil, err
	}

	ld := NewLoader()
	var diags []Diagnostic
	var ignores []*ignoreDirective
	wall := map[string]time.Duration{}
	for _, d := range dirs {
		u, err := ld.Load(d, mod.importPath(d), opt.Tests)
		if err != nil {
			return nil, err
		}
		if u == nil { // no Go files under the current test/non-test filter
			continue
		}
		diags = append(diags, runAnalyzersTimed(u, analyzers, wall)...)
		ignores = append(ignores, u.ignores...)
	}

	diags = applySuppressions(diags, ignores, opt.Strict)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	diags = dedupDiagnostics(diags)

	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	stats := make([]AnalyzerStat, 0, len(analyzers))
	for _, a := range analyzers {
		stats = append(stats, AnalyzerStat{Name: a.Name, Findings: counts[a.Name], Wall: wall[a.Name]})
	}
	// Suppression meta-findings (stale //lint:ignore under -strict) have no
	// analyzer of their own; account for them so the summary totals match
	// the diagnostic list.
	if counts[metaAnalyzer] > 0 {
		stats = append(stats, AnalyzerStat{Name: metaAnalyzer, Findings: counts[metaAnalyzer]})
	}
	return &Result{Diagnostics: diags, Stats: stats}, nil
}

// dedupDiagnostics collapses findings identical in (position, analyzer,
// message). The input must already be sorted; equal findings are
// adjacent except for same-position different-message pairs, so a set is
// still needed.
func dedupDiagnostics(diags []Diagnostic) []Diagnostic {
	if len(diags) < 2 {
		return diags
	}
	seen := make(map[Diagnostic]bool, len(diags))
	out := diags[:0]
	for _, d := range diags {
		if seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

func runAnalyzersTimed(u *Unit, analyzers []*Analyzer, wall map[string]time.Duration) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		var raw []Diagnostic
		pass := &Pass{
			Fset:     u.Fset,
			Files:    u.Files,
			Pkg:      u.Pkg,
			Info:     u.Info,
			Path:     u.Path,
			Dir:      u.Dir,
			analyzer: a,
			sink:     &raw,
		}
		start := time.Now()
		a.Run(pass)
		if wall != nil {
			wall[a.Name] += time.Since(start)
		}
		for _, d := range raw {
			if a.TestExempt && strings.HasSuffix(d.Pos.Filename, "_test.go") {
				continue
			}
			out = append(out, d)
		}
	}
	return out
}

// WriteText prints one "file:line:col: [name] message" line per
// diagnostic.
func (r *Result) WriteText(w io.Writer) {
	for _, d := range r.Diagnostics {
		fmt.Fprintln(w, d.String())
	}
}

// WriteSummary prints the per-analyzer accounting table: one line per
// analyzer with its surviving finding count and wall time, then a total.
func (r *Result) WriteSummary(w io.Writer) {
	var total int
	var wall time.Duration
	for _, s := range r.Stats {
		fmt.Fprintf(w, "  %-12s %3d finding(s)  %8.2fms\n",
			s.Name, s.Findings, float64(s.Wall.Microseconds())/1000.0)
		total += s.Findings
		wall += s.Wall
	}
	fmt.Fprintf(w, "  %-12s %3d finding(s)  %8.2fms\n", "total", total, float64(wall.Microseconds())/1000.0)
}

// --- module + pattern resolution -----------------------------------------

type module struct {
	root string // absolute directory holding go.mod
	path string // module path from the "module" directive
}

// importPath maps an absolute directory inside the module to its import
// path.
func (m module) importPath(dir string) string {
	rel, err := filepath.Rel(m.root, dir)
	if err != nil || rel == "." {
		return m.path
	}
	return m.path + "/" + filepath.ToSlash(rel)
}

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return module{}, err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return module{root: d, path: strings.TrimSpace(rest)}, nil
				}
			}
			return module{}, fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return module{}, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// expandPatterns turns package patterns into a sorted list of absolute
// directories containing Go files. "..." recursion skips testdata,
// vendor, hidden, and underscore-prefixed directories, matching the go
// tool; explicitly named directories are always honored so fixtures
// under testdata can be linted on purpose.
func expandPatterns(base string, mod module, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec, pat = true, rest
		} else if pat == "..." {
			rec, pat = true, "."
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(base, pat)
		}
		abs, err := filepath.Abs(root)
		if err != nil {
			return nil, err
		}
		if st, err := os.Stat(abs); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q: %s is not a directory", pat, abs)
		}
		if !strings.HasPrefix(abs+string(filepath.Separator), mod.root+string(filepath.Separator)) {
			return nil, fmt.Errorf("lint: %s is outside module %s", abs, mod.path)
		}
		if !rec {
			if hasGoFiles(abs) {
				add(abs)
			} else {
				return nil, fmt.Errorf("lint: no Go files in %s", abs)
			}
			continue
		}
		err = filepath.WalkDir(abs, func(p string, de os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !de.IsDir() {
				return nil
			}
			name := de.Name()
			if p != abs && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// --- loading + type checking ---------------------------------------------

// Unit is one parsed and type-checked package.
type Unit struct {
	Dir   string
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	ignores []*ignoreDirective
}

// Loader parses and type-checks packages from source. It wraps the
// stdlib source importer so dependency packages (including the standard
// library, which modern toolchains no longer ship export data for) are
// themselves compiled from source, and caches them across Load calls.
type Loader struct {
	fset *token.FileSet
	imp  *cachedImporter
}

// NewLoader returns a Loader with a fresh file set and import cache.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	src := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return &Loader{fset: fset, imp: &cachedImporter{src: src, pkgs: map[string]*types.Package{}}}
}

// cachedImporter answers a repeated import path from its own map. The
// source importer resolves every import through go/build, which lists the
// package's directory and parses each file's header, before it consults
// its own cache.
type cachedImporter struct {
	src  types.ImporterFrom
	pkgs map[string]*types.Package
}

func (c *cachedImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *cachedImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	pkg, err := c.src.ImportFrom(path, dir, mode)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = pkg
	return pkg, nil
}

// Load parses dir's package and type-checks it under the given import
// path. Test files are included when tests is true. It returns (nil,
// nil) when the filter leaves no files.
func (l *Loader) Load(dir, path string, tests bool) (*Unit, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if !tests && strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	// A directory can hold both package foo and the external test
	// package foo_test; type-check only the majority (in-package) side.
	// External test packages are rare here and their files are still
	// subject to gofmt and go vet in CI.
	pkgName := files[0].Name.Name
	for _, f := range files {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			pkgName = f.Name.Name
			break
		}
	}
	kept := files[:0]
	for _, f := range files {
		if f.Name.Name == pkgName {
			kept = append(kept, f)
		}
	}
	files = kept

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for i, e := range typeErrs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type-checking %s failed:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	u := &Unit{Dir: dir, Path: path, Fset: l.fset, Files: files, Pkg: pkg, Info: info}
	for _, f := range files {
		u.ignores = append(u.ignores, collectIgnores(l.fset, f)...)
	}
	return u, nil
}
