package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"github.com/uwb-sim/concurrent-ranging/internal/lint"
)

// Atomiclock enforces mutual-exclusion discipline on shared fields
// (DESIGN.md §17), seeded from the `failed atomic.Bool // mirrors err !=
// nil` pattern in internal/sim/sharded.go: cross-goroutine signalling
// goes through a typed atomic mirror, while the mutex-guarded truth is
// only touched under its lock. Two checks:
//
//  1. A field ever written while a mutex field of the same struct is
//     write-held is mutex-guarded; reading it without the lock, or
//     writing it under only a read lock, is a diagnostic.
//  2. A field passed by address to legacy sync/atomic functions is
//     atomic; any plain (non-atomic) access to it races.
//
// The walker tracks lock state through straight-line code and branches
// (an unlock inside a terminating if-arm does not leak into the code
// after it). Constructors (New*/new*) are exempt — the value is not yet
// shared — and a function whose doc comment says "Callers hold <mu>."
// is analyzed with its receiver's mutexes already held, formalizing the
// annotation convention already used by the obs/trace helpers. Typed
// sync/atomic values (atomic.Bool, atomic.Int64, ...) are always safe and
// never flagged.
var Atomiclock = &lint.Analyzer{
	Name: "atomiclock",
	Doc:  "mutex-guarded fields are only touched under the guard; legacy atomic fields are never accessed non-atomically",
	Run:  runAtomiclock,
}

// lockHeldRe matches the lock-held-on-entry doc annotation
// ("Callers hold t.mu.", "caller must hold w.mu").
var lockHeldRe = regexp.MustCompile(`(?i)callers?\s+(must\s+)?hold`)

const (
	lockNone  = 0
	lockRead  = 1
	lockWrite = 2
)

// lockState maps a mutex expression ("t.mu") to how it is held.
type lockState map[string]int

func (st lockState) clone() lockState {
	out := make(lockState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// intersectInto lowers dst to the weaker of a and b for every key —
// the state after a branch whose arms may or may not have run.
func intersectInto(dst, a, b lockState) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range a {
		if bv, ok := b[k]; ok {
			if bv < v {
				v = bv
			}
			dst[k] = v
		}
	}
}

func assignInto(dst, src lockState) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

func runAtomiclock(p *lint.Pass) []lint.Diagnostic {
	c := &alChecker{
		pass:        p,
		guarded:     make(map[*types.Var]bool),
		atomicFlds:  make(map[*types.Var]bool),
		atomicNodes: make(map[*ast.SelectorExpr]bool),
	}
	// Pass 1: infer guarded and atomic fields from how the package itself
	// uses them.
	c.forEachFunc(false, c.infer)
	// Pass 2: flag accesses that break the inferred discipline.
	c.forEachFunc(true, c.flag)
	return c.diags
}

type alChecker struct {
	pass        *lint.Pass
	guarded     map[*types.Var]bool        // fields written under a write-held sibling mutex
	atomicFlds  map[*types.Var]bool        // fields accessed via legacy sync/atomic calls
	atomicNodes map[*ast.SelectorExpr]bool // the sanctioned &x.f nodes inside those calls
	diags       []lint.Diagnostic
}

// accessCB observes one field access with the lock state in force.
type accessCB func(sel *ast.SelectorExpr, fld *types.Var, write bool, st lockState)

// forEachFunc walks every function of the package with lock-state
// tracking, feeding field accesses to cb. Constructors are skipped when
// skipConstructors is set; annotated functions start with their
// receiver's mutexes held.
func (c *alChecker) forEachFunc(skipConstructors bool, cb accessCB) {
	w := &lockWalker{checker: c, cb: cb}
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				lower := strings.ToLower(d.Name.Name)
				if skipConstructors && strings.HasPrefix(lower, "new") {
					continue
				}
				w.walkStmts(d.Body.List, c.entryState(d))
			case *ast.GenDecl:
				// Package-level initializers (including closures).
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							w.walkExpr(v, make(lockState))
						}
					}
				}
			}
		}
	}
}

// entryState returns the lock state a function starts with: empty unless
// its doc carries the lock-held annotation, in which case every mutex
// field of the receiver is write-held.
func (c *alChecker) entryState(fd *ast.FuncDecl) lockState {
	st := make(lockState)
	if fd.Doc == nil || !lockHeldRe.MatchString(fd.Doc.Text()) {
		return st
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return st
	}
	recvName := fd.Recv.List[0].Names[0]
	obj := c.pass.Info.Defs[recvName]
	if obj == nil {
		return st
	}
	for _, mu := range mutexFieldNames(obj.Type()) {
		st[recvName.Name+"."+mu] = lockWrite
	}
	return st
}

// mutexFieldNames lists the sync.Mutex/sync.RWMutex fields of t's struct.
func mutexFieldNames(t types.Type) []string {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			out = append(out, st.Field(i).Name())
		}
	}
	return out
}

func isMutexType(t types.Type) bool {
	pkgPath, name, ok := namedType(t)
	return ok && pkgPath == "sync" && (name == "Mutex" || name == "RWMutex")
}

// isSyncType reports types whose fields the checks ignore entirely:
// mutexes, typed atomics, and the other sync primitives.
func isSyncType(t types.Type) bool {
	pkgPath, _, ok := namedType(t)
	return ok && (pkgPath == "sync" || pkgPath == "sync/atomic")
}

// infer is the pass-1 callback: writes under a write-held sibling mutex
// mark the field guarded.
func (c *alChecker) infer(sel *ast.SelectorExpr, fld *types.Var, write bool, st lockState) {
	if !write || isSyncType(fld.Type()) {
		return
	}
	base := types.ExprString(sel.X)
	for _, mu := range c.siblingMutexes(sel) {
		if st[base+"."+mu] == lockWrite {
			c.guarded[fld] = true
			return
		}
	}
}

// flag is the pass-2 callback.
func (c *alChecker) flag(sel *ast.SelectorExpr, fld *types.Var, write bool, st lockState) {
	if isSyncType(fld.Type()) {
		return
	}
	if c.atomicFlds[fld] && !c.atomicNodes[sel] {
		c.diags = append(c.diags, lint.Diagf(sel.Pos(),
			"non-atomic access to field %s, which is accessed with sync/atomic elsewhere; use the atomic API or a typed atomic mirror",
			types.ExprString(sel)))
		return
	}
	if !c.guarded[fld] {
		return
	}
	base := types.ExprString(sel.X)
	held := lockNone
	for _, mu := range c.siblingMutexes(sel) {
		if h := st[base+"."+mu]; h > held {
			held = h
		}
	}
	switch {
	case held == lockNone:
		verb := "read of"
		if write {
			verb = "write to"
		}
		c.diags = append(c.diags, lint.Diagf(sel.Pos(),
			"%s mutex-guarded field %s without holding its lock", verb, types.ExprString(sel)))
	case write && held == lockRead:
		c.diags = append(c.diags, lint.Diagf(sel.Pos(),
			"write to mutex-guarded field %s under a read lock", types.ExprString(sel)))
	}
}

// siblingMutexes lists the mutex fields living next to the accessed field
// in its struct.
func (c *alChecker) siblingMutexes(sel *ast.SelectorExpr) []string {
	s, ok := c.pass.Info.Selections[sel]
	if !ok {
		return nil
	}
	return mutexFieldNames(s.Recv())
}

// lockWalker walks statements in control-flow order, maintaining which
// mutex expressions are held.
type lockWalker struct {
	checker *alChecker
	cb      accessCB
}

func (w *lockWalker) walkStmts(list []ast.Stmt, st lockState) {
	for _, s := range list {
		w.walkStmt(s, st)
	}
}

func (w *lockWalker) walkStmt(s ast.Stmt, st lockState) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.walkExpr(s.X, st)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.walkExpr(rhs, st)
		}
		for _, lhs := range s.Lhs {
			w.walkWrite(lhs, st)
		}
	case *ast.IncDecStmt:
		w.walkWrite(s.X, st)
	case *ast.IfStmt:
		w.walkStmt(s.Init, st)
		w.walkExpr(s.Cond, st)
		bodySt := st.clone()
		w.walkStmts(s.Body.List, bodySt)
		bodyTerm := stmtListTerminates(s.Body.List)
		if s.Else == nil {
			if !bodyTerm {
				intersectInto(st, st.clone(), bodySt)
			}
			return
		}
		elseSt := st.clone()
		w.walkStmt(s.Else, elseSt)
		elseTerm := stmtTerminates(s.Else)
		switch {
		case bodyTerm && !elseTerm:
			assignInto(st, elseSt)
		case elseTerm && !bodyTerm:
			assignInto(st, bodySt)
		case !bodyTerm && !elseTerm:
			intersectInto(st, bodySt, elseSt)
		}
	case *ast.ForStmt:
		w.walkStmt(s.Init, st)
		w.walkExpr(s.Cond, st)
		bodySt := st.clone()
		w.walkStmts(s.Body.List, bodySt)
		w.walkStmt(s.Post, bodySt)
	case *ast.RangeStmt:
		w.walkExpr(s.X, st)
		bodySt := st.clone()
		if s.Tok == token.ASSIGN {
			w.walkWrite(s.Key, bodySt)
			w.walkWrite(s.Value, bodySt)
		}
		w.walkStmts(s.Body.List, bodySt)
	case *ast.BlockStmt:
		w.walkStmts(s.List, st)
	case *ast.SwitchStmt:
		w.walkStmt(s.Init, st)
		w.walkExpr(s.Tag, st)
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				caseSt := st.clone()
				for _, e := range cl.List {
					w.walkExpr(e, caseSt)
				}
				w.walkStmts(cl.Body, caseSt)
			}
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init, st)
		w.walkStmt(s.Assign, st)
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				caseSt := st.clone()
				w.walkStmts(cl.Body, caseSt)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				caseSt := st.clone()
				w.walkStmt(cl.Comm, caseSt)
				w.walkStmts(cl.Body, caseSt)
			}
		}
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the
		// function; a deferred closure runs with (at least) the locks
		// held where it was deferred, which is the common
		// lock-then-defer-cleanup shape.
		if _, op, ok := lockOp(w.checker.pass, s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return
		}
		w.walkExpr(s.Call.Fun, st)
		for _, a := range s.Call.Args {
			w.walkExpr(a, st)
		}
	case *ast.GoStmt:
		// A spawned goroutine holds nothing, whatever the spawner holds.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List, make(lockState))
		} else {
			w.walkExpr(s.Call.Fun, make(lockState))
		}
		for _, a := range s.Call.Args {
			w.walkExpr(a, st)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.walkExpr(r, st)
		}
	case *ast.SendStmt:
		w.walkExpr(s.Chan, st)
		w.walkExpr(s.Value, st)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, st)
					}
				}
			}
		}
	}
}

// walkWrite handles an assignment target: the terminal field selector is
// a write access; everything passed through on the way (indexes, bases)
// is read.
func (w *lockWalker) walkWrite(e ast.Expr, st lockState) {
	switch e := ast.Unparen(e).(type) {
	case nil:
	case *ast.SelectorExpr:
		if s, ok := w.checker.pass.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			if fld, isVar := s.Obj().(*types.Var); isVar {
				w.cb(e, fld, true, st)
			}
			w.walkExpr(e.X, st)
			return
		}
		w.walkExpr(e.X, st)
	case *ast.IndexExpr:
		w.walkExpr(e.Index, st)
		w.walkWrite(e.X, st)
	case *ast.StarExpr:
		w.walkExpr(e.X, st)
	case *ast.SliceExpr:
		w.walkExpr(e, st)
	case *ast.Ident:
	default:
		w.walkExpr(e, st)
	}
}

func (w *lockWalker) walkExpr(e ast.Expr, st lockState) {
	switch e := ast.Unparen(e).(type) {
	case nil:
	case *ast.SelectorExpr:
		if s, ok := w.checker.pass.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			if fld, isVar := s.Obj().(*types.Var); isVar {
				w.cb(e, fld, false, st)
			}
		}
		w.walkExpr(e.X, st)
	case *ast.CallExpr:
		if key, op, ok := lockOp(w.checker.pass, e); ok {
			switch op {
			case "Lock":
				st[key] = lockWrite
			case "RLock":
				if st[key] < lockRead {
					st[key] = lockRead
				}
			case "Unlock", "RUnlock":
				delete(st, key)
			}
			return
		}
		if pkgPath, _, ok := pkgFunc(w.checker.pass.Info, e); ok && pkgPath == "sync/atomic" {
			for _, a := range e.Args {
				w.walkAtomicArg(a, st)
			}
			return
		}
		w.walkExpr(e.Fun, st)
		for _, a := range e.Args {
			w.walkExpr(a, st)
		}
	case *ast.FuncLit:
		w.walkStmts(e.Body.List, st.clone())
	case *ast.UnaryExpr:
		w.walkExpr(e.X, st)
	case *ast.BinaryExpr:
		w.walkExpr(e.X, st)
		w.walkExpr(e.Y, st)
	case *ast.StarExpr:
		w.walkExpr(e.X, st)
	case *ast.IndexExpr:
		w.walkExpr(e.X, st)
		w.walkExpr(e.Index, st)
	case *ast.SliceExpr:
		w.walkExpr(e.X, st)
		w.walkExpr(e.Low, st)
		w.walkExpr(e.High, st)
		w.walkExpr(e.Max, st)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.walkExpr(kv.Value, st)
				continue
			}
			w.walkExpr(el, st)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(e.Value, st)
	}
}

// walkAtomicArg records &x.f arguments of sync/atomic calls: the field
// joins the atomic set and the node itself is sanctioned.
func (w *lockWalker) walkAtomicArg(a ast.Expr, st lockState) {
	un, ok := ast.Unparen(a).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		w.walkExpr(a, st)
		return
	}
	sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
	if !ok {
		w.walkExpr(a, st)
		return
	}
	if s, found := w.checker.pass.Info.Selections[sel]; found && s.Kind() == types.FieldVal {
		if fld, isVar := s.Obj().(*types.Var); isVar {
			w.checker.atomicFlds[fld] = true
			w.checker.atomicNodes[sel] = true
		}
	}
	w.walkExpr(sel.X, st)
}

// lockOp classifies a call as a mutex operation and returns the printed
// mutex expression ("t.mu") and the method name.
func lockOp(p *lint.Pass, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	s, found := p.Info.Selections[sel]
	if !found || s.Kind() != types.MethodVal || !isMutexType(s.Recv()) {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}
