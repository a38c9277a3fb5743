package lint

import (
	"go/ast"
	"go/types"
)

// NoPrint keeps library output on purpose-built channels: internal
// packages must not write to process stdout via fmt.Print/Printf/Println
// or the print/println builtins. PR 1's telemetry logger exists exactly
// so diagnostics are leveled and machine-readable, and the CLIs own
// stdout for their result tables — a stray fmt.Println in a solver
// corrupts piped output (mnsim-bench json parses it) and dodges -log-level.
// fmt.Fprint* to an explicit io.Writer is fine: the caller chose the sink.
var NoPrint = &Analyzer{
	Name:       "noprint",
	Doc:        "no fmt.Print*/print/println to process stdout in internal packages; use telemetry.Logger or take an io.Writer",
	TestExempt: true,
	Run:        runNoPrint,
}

var printFuncs = map[string]bool{"Print": true, "Printf": true, "Println": true}

func runNoPrint(p *Pass) {
	if !inInternal(p.Path) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObj(p.Info, call)
			if name, ok := pkgFuncName(obj, "fmt"); ok && printFuncs[name] {
				p.Reportf(call.Pos(),
					"fmt.%s writes to process stdout from library code: log through telemetry.Logger or print to a caller-supplied io.Writer", name)
			}
			if b, ok := obj.(*types.Builtin); ok && (b.Name() == "print" || b.Name() == "println") {
				p.Reportf(call.Pos(),
					"builtin %s writes to stderr from library code: log through telemetry.Logger or print to a caller-supplied io.Writer", b.Name())
			}
			return true
		})
	}
}
