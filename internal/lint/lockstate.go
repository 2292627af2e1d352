package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// The lock model lockcheck and lockorder share: one recognizer for
// sync.Mutex/RWMutex operations and one branch-cloning walk over one
// held-set lattice, handing events to each analyzer's hooks.
//
// Every function literal is a frame of its own. One invoked in place
// runs under what its caller holds, carried as outer: lockorder counts
// it, lockcheck balances only the frame's own locks. Other literals
// (goroutines, deferred closures, callbacks) start with nothing held.
//
// At a join a lock survives only if every live branch holds it in the
// same state; otherwise it is marked ambiguous — never reported by
// lockcheck, not held for lockorder. return and fallthrough end a
// path; break and continue carry it to the loop exit or iteration end,
// and a forward goto to its label, where the walk resumes even after a
// statement that ends every path.

// lockOp is one recognized Lock/RLock/Unlock/RUnlock call.
type lockOp struct {
	expr    string // source text of the mutex expression
	id      string // canonical cross-function identity; "" for a local mutex
	pkg     string // import path of the package that owns id
	shared  bool   // RLock/RUnlock
	acquire bool
}

// recognizeLock describes e if it is a Lock/RLock/Unlock/RUnlock call
// on a sync.Mutex or sync.RWMutex, directly or through embedding.
func recognizeLock(pkg *Package, e ast.Expr) (lockOp, bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return lockOp{}, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return lockOp{}, false
	}
	switch name := sel.Sel.Name; name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		fn, isFn := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !isFn || (fn.FullName() != "(*sync.Mutex)."+name && fn.FullName() != "(*sync.RWMutex)."+name) {
			return lockOp{}, false
		}
		op := lockOp{expr: types.ExprString(sel.X), shared: name[0] == 'R', acquire: !strings.HasSuffix(name, "Unlock")}
		op.id, op.pkg = canonicalLock(pkg, sel)
		return op, true
	}
	return lockOp{}, false
}

// canonicalLock names the mutex behind x.mu.Lock() (or s.Lock() via an
// embedded mutex) across functions: pkg.Type.field for a field — one
// node per type, the granularity lock ordering is about — or pkg.name
// for a package-level mutex. A function-local mutex gets "".
func canonicalLock(pkg *Package, lockSel *ast.SelectorExpr) (id, pkgPath string) {
	var obj types.Object
	switch x := ast.Unparen(lockSel.X).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[x]
	case *ast.SelectorExpr:
		if s, isSel := pkg.Info.Selections[x]; isSel {
			if s.Kind() == types.FieldVal {
				return fieldPath(s.Recv(), s.Index())
			}
			return "", ""
		}
		obj = pkg.Info.Uses[x.Sel] // a qualified identifier: pkg.mu
	}
	if v, isVar := obj.(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Path() + "." + v.Name(), v.Pkg().Path()
	}
	// A local mutex, or an embedded one (s.Lock()) named through the
	// method selection's field path.
	if s, isSel := pkg.Info.Selections[lockSel]; isSel && len(s.Index()) > 1 {
		return fieldPath(s.Recv(), s.Index()[:len(s.Index())-1])
	}
	return "", ""
}

// fieldPath renders pkg.Type.<fields at path> for a (pointer to a)
// named type.
func fieldPath(t types.Type, path []int) (id, pkgPath string) {
	deref := func(t types.Type) types.Type {
		if p, isPtr := types.Unalias(t).(*types.Pointer); isPtr {
			return p.Elem()
		}
		return t
	}
	named, isNamed := types.Unalias(deref(t)).(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", ""
	}
	names := []string{named.Obj().Name()}
	for _, fi := range path {
		st, isStruct := types.Unalias(deref(t).Underlying()).(*types.Struct)
		if !isStruct || fi >= st.NumFields() {
			return "", ""
		}
		names = append(names, st.Field(fi).Name())
		t = st.Field(fi).Type()
	}
	pkgPath = named.Obj().Pkg().Path()
	return pkgPath + "." + strings.Join(names, "."), pkgPath
}

// heldLock is one entry of the held set, keyed by source text and mode
// so mu.Lock pairs with mu.Unlock and mu.RLock with mu.RUnlock.
type heldLock struct {
	lockOp
	deferred  bool // a defer releases it at return
	ambiguous bool // live branches disagreed at a join
}

// heldSet is the abstract lock state at one program point. Sets are
// never changed in place, so branches share their entry state.
type heldSet []heldLock

func (h heldSet) find(op lockOp) int {
	for i, l := range h {
		if l.expr == op.expr && l.shared == op.shared {
			return i
		}
	}
	return -1
}

// without returns a copy of h minus op's entry.
func (h heldSet) without(op lockOp) heldSet {
	out := make(heldSet, 0, len(h)+1)
	for _, l := range h {
		if l.expr != op.expr || l.shared != op.shared {
			out = append(out, l)
		}
	}
	return out
}

// lockEvents are a client's hooks into the walk. held is the frame's
// own state, outer what its in-place caller holds.
type lockEvents struct {
	acquire func(op lockOp, pos token.Pos, held, outer heldSet)
	call    func(call *ast.CallExpr, held, outer heldSet)
	send    func(pos token.Pos, held heldSet)
	exit    func(pos token.Pos, held heldSet, atReturn bool)
	iterEnd func(body *ast.BlockStmt, entry, end heldSet)
}

// lockWalker walks one frame; held is the state at the current point.
type lockWalker struct {
	pkg     *Package
	ev      *lockEvents
	outer   heldSet
	held    heldSet
	targets []*jumpTarget        // enclosing loops, switches and selects
	label   string               // label of the statement being entered
	gotos   map[string][]heldSet // states at the gotos to each label
}

// jumpTarget collects the states break and continue carry to it.
type jumpTarget struct {
	label         string
	loop          bool
	breaks, conts []heldSet
}

// walkFrame walks a function body, or a literal's, under outer.
func walkFrame(pkg *Package, ev *lockEvents, body *ast.BlockStmt, outer heldSet) {
	w := &lockWalker{pkg: pkg, ev: ev, outer: outer}
	if w.stmts(body.List) {
		ev.exit(body.Rbrace, w.held, false)
	}
}

// join sets the state to the join of the live paths reaching one point
// and reports whether there are any.
func (w *lockWalker) join(paths []heldSet) bool {
	if len(paths) == 0 {
		return false
	}
	var out heldSet
	for _, p := range paths {
		for _, l := range p {
			if out.find(l.lockOp) < 0 {
				out = append(out, l)
			}
		}
	}
	for i := range out {
		for _, p := range paths {
			j := p.find(out[i].lockOp)
			if j < 0 || p[j].deferred != out[i].deferred || p[j].ambiguous != out[i].ambiguous {
				out[i].ambiguous = true
				break
			}
		}
	}
	w.held = out
	return true
}

// stmts walks a list and reports whether control falls off its end.
// A labelled statement joins the path falling into it with the gotos
// that reached it so far, so code after a return that only a goto
// reaches is still walked. A backward goto ends its path.
func (w *lockWalker) stmts(list []ast.Stmt) bool {
	live := true
	for _, s := range list {
		if l, ok := s.(*ast.LabeledStmt); ok && len(w.gotos[l.Label.Name]) > 0 {
			paths := w.gotos[l.Label.Name]
			if live {
				paths = append(paths, w.held)
			}
			live = w.join(paths)
		}
		if live {
			live = w.stmt(s)
		}
	}
	return live
}

func (w *lockWalker) stmt(s ast.Stmt) bool {
	label := w.label
	w.label = ""
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		return w.stmts(s.List)
	case *ast.LabeledStmt:
		w.label = s.Label.Name
		return w.stmt(s.Stmt)
	case *ast.SendStmt:
		w.exprs(s.Chan, s.Value)
		w.ev.send(s.Pos(), w.held)
	case *ast.DeferStmt:
		if op, ok := deferredRelease(w.pkg, s.Call); ok {
			w.held = append(w.held.without(op), heldLock{lockOp: op, deferred: true})
		}
		w.spawn(s.Call)
	case *ast.GoStmt:
		w.spawn(s.Call)
	case *ast.ReturnStmt:
		w.exprs(s.Results...)
		w.ev.exit(s.Pos(), w.held, true)
		return false
	case *ast.BranchStmt:
		return w.jump(s)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.exprs(s.Cond)
		entry, ends := w.held, make([]heldSet, 0, 2)
		if w.stmts(s.Body.List) {
			ends = append(ends, w.held)
		}
		w.held = entry
		if w.stmt(s.Else) {
			ends = append(ends, w.held)
		}
		return w.join(ends)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.exprs(s.Cond)
		return w.loop(label, s.Cond != nil, s.Body, s.Post)
	case *ast.RangeStmt:
		w.exprs(s.X)
		return w.loop(label, true, s.Body, nil)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.exprs(s.Tag)
		return w.clauses(label, s.Body, false)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		return w.clauses(label, s.Body, false)
	case *ast.SelectStmt:
		return w.clauses(label, s.Body, true)
	default: // assignments, declarations, expression statements, inc/dec
		ast.Walk(w, s)
	}
	return true
}

// spawn walks a go or defer call: operands are evaluated now, a literal
// body later, in a frame of its own with nothing held.
func (w *lockWalker) spawn(call *ast.CallExpr) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		walkFrame(w.pkg, w.ev, lit.Body, nil)
	} else {
		w.exprs(call.Fun)
	}
	w.exprs(call.Args...)
}

// deferredRelease recognizes `defer mu.Unlock()` (or RUnlock), directly
// or inside a deferred closure.
func deferredRelease(pkg *Package, call *ast.CallExpr) (lockOp, bool) {
	op, ok := recognizeLock(pkg, call)
	if lit, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); isLit {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if e, isExpr := n.(ast.Expr); isExpr && !ok {
				op, ok = recognizeLock(pkg, e)
				ok = ok && !op.acquire
			}
			return !ok
		})
	}
	return op, ok && !op.acquire
}

// jump records a break or continue at its target and a goto at its
// label; every branch statement ends its path.
func (w *lockWalker) jump(s *ast.BranchStmt) bool {
	if s.Tok == token.GOTO {
		if w.gotos == nil {
			w.gotos = make(map[string][]heldSet)
		}
		w.gotos[s.Label.Name] = append(w.gotos[s.Label.Name], w.held)
		return false
	}
	for i := len(w.targets) - 1; i >= 0 && (s.Tok == token.BREAK || s.Tok == token.CONTINUE); i-- {
		t := w.targets[i]
		if s.Label != nil && s.Label.Name != t.label {
			continue
		}
		if s.Tok == token.BREAK {
			t.breaks = append(t.breaks, w.held)
			break
		}
		if t.loop {
			t.conts = append(t.conts, w.held)
			break
		}
	}
	return false
}

// loop walks one iteration. Its end joins the fallthrough and continue
// paths; the exit joins the breaks with, if the loop has a condition,
// the entry and the iteration end.
func (w *lockWalker) loop(label string, hasCond bool, body *ast.BlockStmt, post ast.Stmt) bool {
	entry, t := w.held, &jumpTarget{label: label, loop: true}
	w.targets = append(w.targets, t)
	if w.stmts(body.List) {
		t.conts = append(t.conts, w.held)
	}
	w.targets = w.targets[:len(w.targets)-1]
	exits := t.breaks
	if hasCond {
		exits = append(exits, entry)
	}
	if w.join(t.conts) {
		w.stmt(post)
		w.ev.iterEnd(body, entry, w.held)
		if hasCond {
			exits = append(exits, w.held)
		}
	}
	return w.join(exits)
}

// clauses walks switch and select bodies, each clause a branch from
// the entry. A switch without a default may match nothing; a select
// blocks until a clause runs, and its sends block unless it has one.
func (w *lockWalker) clauses(label string, body *ast.BlockStmt, isSelect bool) bool {
	hasDefault := false
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || c.List == nil
		case *ast.CommClause:
			hasDefault = hasDefault || c.Comm == nil
		}
	}
	entry, t := w.held, &jumpTarget{label: label}
	w.targets = append(w.targets, t)
	var ends []heldSet
	for _, c := range body.List {
		w.held = entry
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			w.exprs(c.List...)
			list = c.Body
		case *ast.CommClause:
			if send, isSend := c.Comm.(*ast.SendStmt); isSend && hasDefault {
				w.exprs(send.Chan, send.Value)
			} else {
				w.stmt(c.Comm)
			}
			list = c.Body
		}
		if w.stmts(list) {
			ends = append(ends, w.held)
		}
	}
	w.targets = w.targets[:len(w.targets)-1]
	ends = append(ends, t.breaks...)
	if !hasDefault && !isSelect {
		ends = append(ends, entry)
	}
	return w.join(ends)
}

// exprs walks expressions in evaluation order (see Visit).
func (w *lockWalker) exprs(list ...ast.Expr) {
	for _, e := range list {
		if e != nil {
			ast.Walk(w, e)
		}
	}
}

// Visit implements ast.Visitor: lock operations update the state,
// other calls go to the client, and literals are walked as frames.
func (w *lockWalker) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.FuncLit:
		walkFrame(w.pkg, w.ev, n.Body, nil)
		return nil
	case *ast.CallExpr:
		if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
			w.exprs(n.Args...)
			walkFrame(w.pkg, w.ev, lit.Body, slices.Concat(w.outer, w.held))
			return nil
		}
		op, isLock := recognizeLock(w.pkg, n)
		switch {
		case !isLock:
			w.ev.call(n, w.held, w.outer)
			return w
		case op.acquire:
			w.ev.acquire(op, n.Pos(), w.held, w.outer)
			w.held = append(w.held.without(op), heldLock{lockOp: op})
		default:
			w.held = w.held.without(op)
		}
		return nil
	}
	return w
}
