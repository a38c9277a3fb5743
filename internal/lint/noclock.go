package lint

import (
	"go/ast"
)

// NoClock enforces PR 4's replay contract: the numerical packages — the
// circuit solver, the linear-algebra core, and the behavioral
// crossbar/device models — must be pure functions of their inputs, so a
// flight-recorder snapshot re-run on another machine reproduces the
// original solve bit for bit. A single time.Now there (say, a timing
// heuristic that switches solver paths) makes replay diverge
// unreproducibly. Wall-clock reads belong in internal/telemetry — spans,
// the journal and sweep phases — which observe the numerics from the
// outside without feeding time back into them.
var NoClock = &Analyzer{
	Name:       "noclock",
	Doc:        "no time.Now/time.Since in the numerical packages (circuit, linalg, crossbar, device); time via telemetry spans",
	TestExempt: true,
	Run:        runNoClock,
}

// clockFreeSubtrees are the package subtrees that must never read the
// wall clock, matched as path segments (so "mnsim/internal/circuit" and
// a fixture package ending in ".../internal/circuit" both qualify).
// Keep this list tight: every addition is a package whose replay
// bit-identity is being promised.
var clockFreeSubtrees = []string{
	"internal/circuit",
	"internal/linalg",
	"internal/crossbar",
	"internal/device",
}

// clockFuncs are the forbidden time package entry points. time.Since is
// listed separately from time.Now because it reads the clock itself.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runNoClock(p *Pass) {
	restricted := false
	for _, sub := range clockFreeSubtrees {
		if underPathSubtree(p.Path, sub) {
			restricted = true
			break
		}
	}
	if !restricted {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pkgFuncName(calleeObj(p.Info, call), "time"); ok && clockFuncs[name] {
				p.Reportf(call.Pos(),
					"time.%s in clock-free package %s: numerics must be pure so flight-recorder replay is bit-identical; time this from a telemetry span outside the package", name, p.Path)
			}
			return true
		})
	}
}
