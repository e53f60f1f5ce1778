package analyzers

import (
	"go/ast"
	"go/types"

	"github.com/uwb-sim/concurrent-ranging/internal/lint"
)

// Bufalias enforces the buffer-ownership contract at dsp plan call sites.
// The plan-execution entry points — (*dsp.UpsamplePlan).Execute and
// (*dsp.MatchedFilterBank).FilterInto — write into a caller-supplied
// destination slice and return it. When that destination is a struct
// field (detector-owned scratch reused on every Detect round), any alias
// that escapes the function — stored into a struct field, returned,
// appended to a slice, or embedded in a composite literal — is silently
// overwritten by the next round, corrupting whatever the caller kept.
//
// The analysis is per function and conservative: a value is tainted when
// it is the field-backed destination argument of a plan call or a local
// bound to such a call's result; taint follows simple assignments and
// slicings. Locally allocated destinations (make, caller parameters) are
// the caller's to keep and are not flagged.
var Bufalias = &lint.Analyzer{
	Name: "bufalias",
	Doc:  "reused dsp plan buffers must not escape via fields, returns, appends, or literals",
	Run:  runBufalias,
}

// planCallDst returns the destination-slice argument of a dsp plan
// execution call, or nil if the call is not one.
func planCallDst(info *types.Info, call *ast.CallExpr) ast.Expr {
	_, recvType, name, ok := methodCall(info, call)
	if !ok || len(call.Args) != 2 {
		return nil
	}
	pkgPath, typeName, isNamed := namedType(recvType)
	if !isNamed || pkgPath != dspPath {
		return nil
	}
	if typeName == "UpsamplePlan" && name == "Execute" ||
		typeName == "MatchedFilterBank" && name == "FilterInto" {
		return call.Args[0]
	}
	return nil
}

func runBufalias(p *lint.Pass) []lint.Diagnostic {
	var diags []lint.Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			w := &aliasWalker{
				pass:    p,
				tainted: make(map[string]bool),
				fields:  make(map[string]bool),
			}
			// Two passes: taint first (a plan call later in the function
			// still poisons an earlier return in a loop), then flag.
			w.collect(body)
			w.flag(body)
			diags = append(diags, w.diags...)
			return true
		})
	}
	return diags
}

type aliasWalker struct {
	pass    *lint.Pass
	tainted map[string]bool // locals aliasing a field-backed plan destination
	fields  map[string]bool // field expressions used as plan destinations
	diags   []lint.Diagnostic
}

// fieldBacked reports whether e denotes (a slicing of) a struct field or
// a local already known to alias one.
func (w *aliasWalker) fieldBacked(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		sel, ok := w.pass.Info.Selections[e]
		return ok && sel.Kind() == types.FieldVal
	case *ast.SliceExpr:
		return w.fieldBacked(e.X)
	case *ast.Ident:
		return w.tainted[e.Name]
	}
	return false
}

// isTainted reports whether e aliases a reused plan destination: a
// tainted local, a field used as a plan destination, a slicing of either,
// or a plan call with a field-backed destination.
func (w *aliasWalker) isTainted(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return w.tainted[e.Name]
	case *ast.SelectorExpr:
		return w.fields[types.ExprString(e)]
	case *ast.SliceExpr:
		return w.isTainted(e.X)
	case *ast.CallExpr:
		dst := planCallDst(w.pass.Info, e)
		return dst != nil && w.fieldBacked(dst)
	}
	return false
}

// collect gathers taint until it stops growing: plan destinations that
// are struct fields, and locals assigned from them.
func (w *aliasWalker) collect(body *ast.BlockStmt) {
	for {
		grew := false
		mark := func(m map[string]bool, key string) {
			if !m[key] {
				m[key] = true
				grew = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // analyzed as its own function
			case *ast.CallExpr:
				if dst := planCallDst(w.pass.Info, n); dst != nil && w.fieldBacked(dst) {
					if sel, ok := ast.Unparen(dst).(*ast.SelectorExpr); ok {
						mark(w.fields, types.ExprString(sel))
					}
				}
			case *ast.AssignStmt:
				// `x := <tainted>` and `x, err := d.bank.FilterInto(d.buf, t)`
				// bind locals to the reused buffer.
				if len(n.Rhs) == 1 && len(n.Lhs) > 0 {
					if w.isTainted(n.Rhs[0]) {
						if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
							mark(w.tainted, id.Name)
						}
					}
				} else if len(n.Rhs) == len(n.Lhs) {
					for i, rhs := range n.Rhs {
						if w.isTainted(rhs) {
							if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
								mark(w.tainted, id.Name)
							}
						}
					}
				}
			}
			return true
		})
		if !grew {
			return
		}
	}
}

// flag reports every escape of a tainted value.
func (w *aliasWalker) flag(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed as its own function
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if w.isTainted(r) {
					w.diags = append(w.diags, lint.Diagf(r.Pos(),
						"returning %s aliases a reused dsp plan buffer; copy into a caller-owned slice instead", types.ExprString(r)))
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if s, found := w.pass.Info.Selections[sel]; !found || s.Kind() != types.FieldVal {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				// Re-slicing a buffer into itself (d.buf = d.buf[:n]) is
				// ownership-preserving, not an escape.
				if rhs != nil && w.isTainted(rhs) && !sameBase(lhs, rhs) {
					w.diags = append(w.diags, lint.Diagf(n.Pos(),
						"storing %s into field %s aliases a reused dsp plan buffer; copy instead", types.ExprString(rhs), types.ExprString(lhs)))
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if b, isBuiltin := w.pass.Info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "append" {
					for _, arg := range n.Args[1:] {
						if w.isTainted(arg) {
							w.diags = append(w.diags, lint.Diagf(arg.Pos(),
								"appending %s keeps an alias of a reused dsp plan buffer; copy instead", types.ExprString(arg)))
						}
					}
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if w.isTainted(v) {
					w.diags = append(w.diags, lint.Diagf(v.Pos(),
						"composite literal captures %s, an alias of a reused dsp plan buffer; copy instead", types.ExprString(v)))
				}
			}
		}
		return true
	})
}

// sameBase reports whether two expressions share the same printed base
// expression after stripping slicings.
func sameBase(a, b ast.Expr) bool {
	return types.ExprString(stripSlices(a)) == types.ExprString(stripSlices(b))
}

func stripSlices(e ast.Expr) ast.Expr {
	for {
		switch s := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = s.X
		default:
			return e
		}
	}
}
