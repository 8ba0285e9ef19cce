package greenlint

import (
	"go/ast"
)

// Wallclock rejects direct wall-clock reads and wall-clock timers.
// Every duration and energy figure the harness emits is derived from
// the deterministic virtual clock (internal/vclock) and the energy
// meter (internal/energy); a time.Now or time.Since in a measured path
// silently re-couples results to the host machine, a time.Sleep burns
// real seconds the virtual clock never sees, and a time.After or
// time.NewTicker smuggles real-time scheduling into code whose ordering
// must be a pure function of virtual progress. Operator-facing sites —
// progress lines on stderr, the coordinator's process-deadline timer —
// are the only legitimate uses and must carry a //greenlint:allow
// naming why the site never influences a measured quantity.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid time.Now/Since/Sleep and wall-clock timers (After/Tick/NewTimer/NewTicker); measured code uses internal/vclock + internal/energy",
	Run: func(p *Pass) {
		for _, f := range p.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || p.pkgPathOf(sel.X) != "time" {
					return true
				}
				switch sel.Sel.Name {
				case "Now", "Since", "Sleep":
					p.Reportf(call.Pos(),
						"call to time.%s reads the wall clock; measured code must go through internal/vclock / internal/energy",
						sel.Sel.Name)
				case "After", "Tick", "NewTimer", "NewTicker", "AfterFunc":
					p.Reportf(call.Pos(),
						"call to time.%s arms a wall-clock timer; only operator-facing liveness machinery may do this, under a //greenlint:allow",
						sel.Sel.Name)
				}
				return true
			})
		}
	},
}
