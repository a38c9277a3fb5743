package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRx extracts the backquoted regexes of one `// want` comment.
var wantRx = regexp.MustCompile("`([^`]+)`")

type wantAnn struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// collectWants parses `// want `+"`regex`"+“ annotations from the
// unit's comments. The annotation sits on the offending line.
func collectWants(t *testing.T, u *Unit) []*wantAnn {
	t.Helper()
	var out []*wantAnn
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				ms := wantRx.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range ms {
					rx, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
					}
					out = append(out, &wantAnn{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	return out
}

// fixtureLoader loads every fixture, so the standard-library packages
// the fixtures import are type-checked once per test binary.
var fixtureLoader = NewLoader()

// loadFixture type-checks the fixture package under testdata/src/dir,
// assigning it the given import path (fake paths let path-scoped
// analyzers fire).
func loadFixture(t *testing.T, dir, path string) *Unit {
	t.Helper()
	u, err := fixtureLoader.Load(filepath.Join("testdata", "src", dir), path, false)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if u == nil {
		t.Fatalf("fixture %s has no Go files", dir)
	}
	return u
}

// runAnalyzers runs the analyzers over one unit, untimed.
func runAnalyzers(u *Unit, analyzers []*Analyzer) []Diagnostic {
	return runAnalyzersTimed(u, analyzers, nil)
}

// checkFixture runs one analyzer over a fixture and compares the
// diagnostics against the `// want` annotations, both ways: every
// annotation must be hit, and every diagnostic must be annotated.
func checkFixture(t *testing.T, a *Analyzer, dir, path string) {
	t.Helper()
	u := loadFixture(t, dir, path)
	diags := runAnalyzers(u, []*Analyzer{a})
	wants := collectWants(t, u)
	for _, d := range diags {
		hit := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.rx.MatchString(d.Message) {
				w.matched = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.rx)
		}
	}
	if t.Failed() {
		var sb strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&sb, "  %s\n", d)
		}
		t.Logf("all %s diagnostics:\n%s", a.Name, sb.String())
	}
}
