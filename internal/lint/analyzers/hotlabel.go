package analyzers

import (
	"go/ast"
	"strings"

	"github.com/uwb-sim/concurrent-ranging/internal/lint"
)

// Hotlabel enforces the VecSource pre-resolution idiom (DESIGN.md §17).
// Labeled-metric lookups — (*obs.CounterVec).With and friends, and the
// VecSource/Registry family getters CounterVec/GaugeVec —
// take a map lookup under a lock; per-event code paths run millions of
// times per run and must record through plain *Counter/*Gauge handles
// resolved once at wiring time instead. The analyzer flags any such
// lookup outside a sanctioned setup context: functions named Set*
// (SetRecorder, SetMetrics), constructors (New*/new*), attach, and the
// batch Record method, which runs once per campaign flush. Closures
// inherit the allowance of the function that encloses them; package-level
// initialization is always allowed.
var Hotlabel = &lint.Analyzer{
	Name: "hotlabel",
	Doc:  "metric-vector label lookups (.With, *Vec getters) belong in SetRecorder/SetMetrics-style setup, not per-event code",
	Run:  runHotlabel,
}

// hotlabelSetupFunc reports whether label resolution is sanctioned inside
// a function with this name.
func hotlabelSetupFunc(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "set") ||
		strings.HasPrefix(lower, "new") ||
		lower == "attach" || name == "Record"
}

// hotlabelLookups are the obs methods that resolve a labeled child.
var hotlabelLookups = map[string]bool{
	"With": true, "CounterVec": true, "GaugeVec": true,
}

func runHotlabel(p *lint.Pass) []lint.Diagnostic {
	var diags []lint.Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || hotlabelSetupFunc(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				_, recvType, name, ok := methodCall(p.Info, call)
				if !ok || !hotlabelLookups[name] {
					return true
				}
				if pkgPath, _, okN := namedType(recvType); okN && pkgPath == obsPath {
					diags = append(diags, lint.Diagf(call.Pos(),
						"%s resolves a metric-vector label in %s; resolve the handle once in SetRecorder/SetMetrics and record through it",
						name, fd.Name.Name))
				}
				return true
			})
		}
	}
	return diags
}
