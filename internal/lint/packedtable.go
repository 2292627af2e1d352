package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Packed record tables are the second table family the decoder leans
// on: arrays of at least packedMinLen integer slots (quick1, the
// pointer-held quick2, the SIB tables) built by bounded
// fill loops. Unlike the entry-struct constructors, zero is a legal
// value here — "no quick form", "no memory operand" — so per-slot
// write tracking would drown in false positives. Coverage is instead
// judged by loop span: every index a fill loop's variable reaches
// counts as considered, whether or not the body's conditionals wrote
// it. A slot outside every span was never considered at all, and that
// is the bug this check exists for (a `< 0xBF` where `< 0xC0` was
// meant leaves real ModRM bytes decoding as zero).
const packedMinLen = 256

// packedTab is the per-function state for one table identity.
type packedTab struct {
	disp    string // canonical display form of the base expression
	n       int64
	cover   []bool
	builder bool // some loop write spans >= n/2: this function builds the table
	sound   bool // false once a write the walker cannot bound appears
}

// packedState walks one function body.
type packedState struct {
	pkg   *Package
	tabs  map[string]*packedTab
	order []string
}

// runPackedTables checks packed-table fill coverage for one function.
func runPackedTables(pass *Pass, pkg *Package, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	ps := &packedState{pkg: pkg, tabs: make(map[string]*packedTab)}
	ps.walkStmt(fd.Body, nil)
	ps.closureWrites(fd.Body)
	for _, key := range ps.order {
		tab := ps.tabs[key]
		if !tab.sound || !tab.builder {
			continue
		}
		for lo := int64(0); lo < tab.n; lo++ {
			if tab.cover[lo] {
				continue
			}
			hi := lo
			for hi+1 < tab.n && !tab.cover[hi+1] {
				hi++
			}
			if lo == hi {
				pass.Reportf(fd.Name.Pos(), "%s leaves packed slot 0x%02X of %s unassigned: it reads back as zero", fd.Name.Name, lo, tab.disp)
			} else {
				pass.Reportf(fd.Name.Pos(), "%s leaves packed slots 0x%02X-0x%02X of %s unassigned: they read back as zero", fd.Name.Name, lo, hi, tab.disp)
			}
			lo = hi
		}
	}
}

// walkStmt recurses through the statement tree carrying the spans of
// enclosing bounded loop variables (inclusive [lo, hi] ranges).
func (ps *packedState) walkStmt(stmt ast.Stmt, spans map[types.Object][2]int64) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		for _, inner := range s.List {
			ps.walkStmt(inner, spans)
		}
	case *ast.IfStmt:
		ps.walkStmt(s.Body, spans)
		if s.Else != nil {
			ps.walkStmt(s.Else, spans)
		}
	case *ast.ForStmt:
		ps.walkFor(s, spans)
	case *ast.RangeStmt:
		ps.walkRange(s, spans)
	case *ast.SwitchStmt:
		ps.walkStmt(s.Body, spans)
	case *ast.TypeSwitchStmt:
		ps.walkStmt(s.Body, spans)
	case *ast.SelectStmt:
		ps.walkStmt(s.Body, spans)
	case *ast.CaseClause:
		for _, inner := range s.Body {
			ps.walkStmt(inner, spans)
		}
	case *ast.CommClause:
		for _, inner := range s.Body {
			ps.walkStmt(inner, spans)
		}
	case *ast.LabeledStmt:
		ps.walkStmt(s.Stmt, spans)
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			ps.recordWrite(lhs, s.Tok, spans)
		}
	case *ast.IncDecStmt:
		ps.recordWrite(s.X, s.Tok, spans)
	}
}

// walkFor extracts `for i := lo; i </<= hi; i++` spans with constant
// bounds; anything else recurses without a span so index uses of its
// variable stay unbounded.
func (ps *packedState) walkFor(s *ast.ForStmt, spans map[types.Object][2]int64) {
	loopVar, lo, hi, ok := ps.boundedLoop(s)
	if !ok || lo > hi {
		if s.Init != nil {
			ps.walkStmt(s.Init, spans)
		}
		if s.Post != nil {
			ps.walkStmt(s.Post, spans)
		}
		ps.walkStmt(s.Body, spans)
		return
	}
	inner := make(map[types.Object][2]int64, len(spans)+1)
	for k, v := range spans {
		inner[k] = v
	}
	inner[loopVar] = [2]int64{lo, hi}
	ps.walkStmt(s.Body, inner)
}

// boundedLoop matches the classic fill-loop header and returns the
// loop variable with its inclusive constant range.
func (ps *packedState) boundedLoop(s *ast.ForStmt) (types.Object, int64, int64, bool) {
	return boundedLoopIn(ps.pkg, s)
}

// boundedLoopIn is boundedLoop without the walker state, shared with
// the value-accurate interpreter.
func boundedLoopIn(pkg *Package, s *ast.ForStmt) (types.Object, int64, int64, bool) {
	init, ok := s.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return nil, 0, 0, false
	}
	id, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, 0, 0, false
	}
	loopVar := pkg.Info.Defs[id]
	lo, okLo := constIntIn(pkg, init.Rhs[0])
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if loopVar == nil || !okLo || !ok {
		return nil, 0, 0, false
	}
	condVar, ok := cond.X.(*ast.Ident)
	if !ok || pkg.Info.Uses[condVar] != loopVar {
		return nil, 0, 0, false
	}
	hi, okHi := constIntIn(pkg, cond.Y)
	if !okHi {
		return nil, 0, 0, false
	}
	switch cond.Op {
	case token.LEQ:
	case token.LSS:
		hi--
	default:
		return nil, 0, 0, false
	}
	post, ok := s.Post.(*ast.IncDecStmt)
	if !ok || post.Tok != token.INC {
		return nil, 0, 0, false
	}
	return loopVar, lo, hi, true
}

// walkRange gives `for i := range arr` the array's full span.
func (ps *packedState) walkRange(s *ast.RangeStmt, spans map[types.Object][2]int64) {
	keyIdent, ok := s.Key.(*ast.Ident)
	if ok && s.Tok == token.DEFINE {
		if keyObj := ps.pkg.Info.Defs[keyIdent]; keyObj != nil {
			if arr, ok := derefArray(ps.pkg.Info.TypeOf(s.X)); ok && arr.Len() > 0 {
				inner := make(map[types.Object][2]int64, len(spans)+1)
				for k, v := range spans {
					inner[k] = v
				}
				inner[keyObj] = [2]int64{0, arr.Len() - 1}
				ps.walkStmt(s.Body, inner)
				return
			}
		}
	}
	ps.walkStmt(s.Body, spans)
}

// recordWrite classifies one assignment target. Only plain `=` writes
// with a constant or span-bounded first index count as fills; any
// other write to a recognized table poisons it (never a false
// positive from a table the walker half-understands).
func (ps *packedState) recordWrite(lhs ast.Expr, tok token.Token, spans map[types.Object][2]int64) {
	base, indices := peelIndexes(lhs)
	if len(indices) == 0 {
		return
	}
	tab := ps.tableFor(base)
	if tab == nil {
		return
	}
	if tok != token.ASSIGN {
		tab.sound = false
		return
	}
	idx := indices[0]
	if k, ok := ps.constInt(idx); ok {
		if k < 0 || k >= tab.n {
			tab.sound = false
			return
		}
		tab.cover[k] = true
		return
	}
	if id, ok := ast.Unparen(idx).(*ast.Ident); ok {
		if span, ok := spans[ps.pkg.Info.Uses[id]]; ok {
			lo, hi := span[0], span[1]
			if lo < 0 {
				lo = 0
			}
			if hi >= tab.n {
				hi = tab.n - 1
			}
			for v := lo; v <= hi; v++ {
				tab.cover[v] = true
			}
			if hi-lo+1 >= tab.n/2 {
				tab.builder = true
			}
			return
		}
	}
	// Parameter-indexed (grpMeta-style group patching) or data-driven:
	// not a fill this walker can bound.
	tab.sound = false
}

// closureWrites poisons any table also written from a function
// literal: the walker does not model closure control flow, so such a
// table's coverage cannot be judged here.
func (ps *packedState) closureWrites(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(inner ast.Node) bool {
			var targets []ast.Expr
			switch s := inner.(type) {
			case *ast.AssignStmt:
				targets = s.Lhs
			case *ast.IncDecStmt:
				targets = []ast.Expr{s.X}
			default:
				return true
			}
			for _, lhs := range targets {
				base, indices := peelIndexes(lhs)
				if len(indices) == 0 {
					continue
				}
				if tab, ok := ps.tabs[types.ExprString(base)]; ok {
					tab.sound = false
				}
			}
			return true
		})
		return false
	})
}

// tableFor resolves a write base to a packed-table identity: a plain
// variable or a single field selector whose type (behind at most one
// pointer) is an integer-element array of at least packedMinLen
// slots. Multi-dimensional tables qualify through their outermost
// dimension — quick2's [256][256]uint32 is covered by its first
// index.
func (ps *packedState) tableFor(base ast.Expr) *packedTab {
	switch b := ast.Unparen(base).(type) {
	case *ast.Ident:
	case *ast.SelectorExpr:
		if _, ok := ast.Unparen(b.X).(*ast.Ident); !ok {
			return nil
		}
	default:
		return nil
	}
	arr, ok := derefArray(ps.pkg.Info.TypeOf(base))
	if !ok || arr.Len() < packedMinLen || !packedElem(arr.Elem()) {
		return nil
	}
	key := types.ExprString(base)
	tab, ok := ps.tabs[key]
	if !ok {
		tab = &packedTab{disp: key, n: arr.Len(), cover: make([]bool, arr.Len()), sound: true}
		ps.tabs[key] = tab
		ps.order = append(ps.order, key)
	}
	return tab
}

// derefArray unwraps at most one pointer and reports the underlying
// array type.
func derefArray(t types.Type) (*types.Array, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	arr, ok := t.Underlying().(*types.Array)
	return arr, ok
}

// packedElem reports whether an element type is an integer or an
// array of such — the record shapes the packed tables hold.
func packedElem(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsInteger != 0
	case *types.Array:
		return packedElem(u.Elem())
	}
	return false
}

// peelIndexes strips an index chain, returning the base expression
// and the indices outermost-dimension first.
func peelIndexes(lhs ast.Expr) (ast.Expr, []ast.Expr) {
	expr := ast.Unparen(lhs)
	var indices []ast.Expr
	for {
		ix, ok := expr.(*ast.IndexExpr)
		if !ok {
			break
		}
		indices = append([]ast.Expr{ix.Index}, indices...)
		expr = ast.Unparen(ix.X)
	}
	return expr, indices
}

// constInt resolves a type-checked integer constant.
func (ps *packedState) constInt(expr ast.Expr) (int64, bool) {
	return constIntIn(ps.pkg, expr)
}

// constIntIn is constInt without the walker state, shared with the
// value-accurate interpreter below.
func constIntIn(pkg *Package, expr ast.Expr) (int64, bool) {
	if tv, ok := pkg.Info.Types[expr]; ok && tv.Value != nil {
		return constant.Int64Val(constant.ToInt(tv.Value))
	}
	return 0, false
}

// ----------------------------------------------------------------------
// Value-accurate constructor interpretation.
//
// The coverage walker above answers "was every slot considered". The
// decodeprover needs strictly more: the exact values a table constructor
// produces, derived from its source text, so the committed constructors
// can be compared element-by-element against an independently written
// ISA specification and against the tables linked into the running
// binary. interpretTableFunc evaluates a deliberately small,
// loop-bounded subset of Go — the shape of a fill-loop constructor: no
// calls except type conversions, no pointers, no aliasing, constant
// loop bounds — and returns the function's named result arrays. Any
// construct outside the subset is an error, which the prover surfaces
// as a finding: constructors must stay simple enough to interpret, or
// the prover loses its static leg.

// interpMaxSteps bounds total statement executions so a mis-parsed
// loop cannot hang the analyzer.
const interpMaxSteps = 1 << 22

// valInterp is the evaluation state for one constructor.
type valInterp struct {
	pkg    *Package
	locals map[types.Object]int64
	arrays map[types.Object][]int64
	steps  int
}

// interpretTableFunc evaluates a table-constructor function declaration
// and returns its named array results, keyed by result name, as int64
// element slices. The function must have only named results of
// integer-element array type and must use only the interpretable
// statement subset.
func interpretTableFunc(pkg *Package, fd *ast.FuncDecl) (map[string][]int64, error) {
	if fd.Body == nil || fd.Type.Results == nil {
		return nil, fmt.Errorf("%s: not a table constructor (no body or results)", fd.Name.Name)
	}
	ti := &valInterp{
		pkg:    pkg,
		locals: make(map[types.Object]int64),
		arrays: make(map[types.Object][]int64),
	}
	var order []types.Object
	for _, field := range fd.Type.Results.List {
		if len(field.Names) == 0 {
			return nil, fmt.Errorf("%s: results must be named", fd.Name.Name)
		}
		for _, name := range field.Names {
			obj := pkg.Info.Defs[name]
			if obj == nil {
				return nil, fmt.Errorf("%s: result %s not type-checked", fd.Name.Name, name.Name)
			}
			arr, ok := obj.Type().Underlying().(*types.Array)
			if !ok || !packedElem(arr.Elem()) {
				return nil, fmt.Errorf("%s: result %s is not an integer-element array", fd.Name.Name, name.Name)
			}
			ti.arrays[obj] = make([]int64, arr.Len())
			order = append(order, obj)
		}
	}
	if _, err := ti.execBlock(fd.Body); err != nil {
		return nil, fmt.Errorf("%s: %v", fd.Name.Name, err)
	}
	out := make(map[string][]int64, len(order))
	for _, obj := range order {
		out[obj.Name()] = ti.arrays[obj]
	}
	return out, nil
}

// step charges one statement execution against the interpreter budget.
func (ti *valInterp) step() error {
	ti.steps++
	if ti.steps > interpMaxSteps {
		return fmt.Errorf("exceeded %d interpretation steps", interpMaxSteps)
	}
	return nil
}

// execBlock executes a statement list; returned reports a return
// statement terminated the function.
func (ti *valInterp) execBlock(b *ast.BlockStmt) (returned bool, err error) {
	for _, stmt := range b.List {
		returned, err = ti.execStmt(stmt)
		if returned || err != nil {
			return returned, err
		}
	}
	return false, nil
}

func (ti *valInterp) execStmt(stmt ast.Stmt) (returned bool, err error) {
	if err := ti.step(); err != nil {
		return false, err
	}
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return ti.execBlock(s)
	case *ast.DeclStmt:
		return false, ti.execDecl(s)
	case *ast.AssignStmt:
		return false, ti.execAssign(s)
	case *ast.IncDecStmt:
		delta := int64(1)
		if s.Tok == token.DEC {
			delta = -1
		}
		id, ok := ast.Unparen(s.X).(*ast.Ident)
		if !ok {
			return false, fmt.Errorf("inc/dec of non-identifier %s", types.ExprString(s.X))
		}
		obj := ti.pkg.Info.Uses[id]
		if _, bound := ti.locals[obj]; !bound {
			return false, fmt.Errorf("inc/dec of unbound variable %s", id.Name)
		}
		ti.locals[obj] += delta
		return false, nil
	case *ast.IfStmt:
		if s.Init != nil {
			return false, fmt.Errorf("if statements with init clauses are not interpretable")
		}
		cond, err := ti.evalBool(s.Cond)
		if err != nil {
			return false, err
		}
		if cond {
			return ti.execBlock(s.Body)
		}
		if s.Else != nil {
			return ti.execStmt(s.Else)
		}
		return false, nil
	case *ast.SwitchStmt:
		return ti.execSwitch(s)
	case *ast.ForStmt:
		return ti.execFor(s)
	case *ast.ReturnStmt:
		// Named results: a bare return, or returning the result
		// identifiers themselves, leaves the arrays as the outcome.
		for i, res := range s.Results {
			id, ok := ast.Unparen(res).(*ast.Ident)
			if !ok {
				return false, fmt.Errorf("return value %d is not a named result", i)
			}
			if _, ok := ti.arrays[ti.pkg.Info.Uses[id]]; !ok {
				return false, fmt.Errorf("return of non-result value %s", id.Name)
			}
		}
		return true, nil
	case *ast.EmptyStmt:
		return false, nil
	}
	return false, fmt.Errorf("statement %T is not interpretable", stmt)
}

// execDecl handles `var v T` declarations with optional constant-free
// initializers.
func (ti *valInterp) execDecl(s *ast.DeclStmt) error {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return fmt.Errorf("declaration %T is not interpretable", s.Decl)
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			return fmt.Errorf("declaration spec %T is not interpretable", spec)
		}
		for i, name := range vs.Names {
			obj := ti.pkg.Info.Defs[name]
			if obj == nil {
				return fmt.Errorf("declared variable %s not type-checked", name.Name)
			}
			var v int64
			if i < len(vs.Values) {
				var err error
				if v, err = ti.evalExpr(vs.Values[i]); err != nil {
					return err
				}
			}
			ti.locals[obj] = v
		}
	}
	return nil
}

// execAssign handles plain, define, and compound assignments to locals
// and to result-array elements.
func (ti *valInterp) execAssign(s *ast.AssignStmt) error {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return fmt.Errorf("multi-assignment is not interpretable")
	}
	rhs, err := ti.evalExpr(s.Rhs[0])
	if err != nil {
		return err
	}
	combine := func(old int64) (int64, error) {
		switch s.Tok {
		case token.ASSIGN, token.DEFINE:
			return rhs, nil
		case token.ADD_ASSIGN:
			return old + rhs, nil
		case token.SUB_ASSIGN:
			return old - rhs, nil
		case token.OR_ASSIGN:
			return old | rhs, nil
		case token.AND_ASSIGN:
			return old & rhs, nil
		case token.XOR_ASSIGN:
			return old ^ rhs, nil
		case token.AND_NOT_ASSIGN:
			return old &^ rhs, nil
		case token.SHL_ASSIGN:
			return old << uint64(rhs), nil
		case token.SHR_ASSIGN:
			return old >> uint64(rhs), nil
		case token.MUL_ASSIGN:
			return old * rhs, nil
		}
		return 0, fmt.Errorf("assignment operator %s is not interpretable", s.Tok)
	}
	switch lhs := ast.Unparen(s.Lhs[0]).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return nil
		}
		if s.Tok == token.DEFINE {
			obj := ti.pkg.Info.Defs[lhs]
			if obj == nil {
				return fmt.Errorf("defined variable %s not type-checked", lhs.Name)
			}
			ti.locals[obj] = rhs
			return nil
		}
		obj := ti.pkg.Info.Uses[lhs]
		old, bound := ti.locals[obj]
		if !bound {
			return fmt.Errorf("assignment to unbound variable %s", lhs.Name)
		}
		v, err := combine(old)
		if err != nil {
			return err
		}
		ti.locals[obj] = v
		return nil
	case *ast.IndexExpr:
		base, ok := ast.Unparen(lhs.X).(*ast.Ident)
		if !ok {
			return fmt.Errorf("indexed write to non-identifier %s", types.ExprString(lhs.X))
		}
		arr, ok := ti.arrays[ti.pkg.Info.Uses[base]]
		if !ok {
			return fmt.Errorf("indexed write to non-result array %s", base.Name)
		}
		idx, err := ti.evalExpr(lhs.Index)
		if err != nil {
			return err
		}
		if idx < 0 || idx >= int64(len(arr)) {
			return fmt.Errorf("write to %s[%d] outside [0, %d)", base.Name, idx, len(arr))
		}
		v, err := combine(arr[idx])
		if err != nil {
			return err
		}
		arr[idx] = v
		return nil
	}
	return fmt.Errorf("assignment target %T is not interpretable", s.Lhs[0])
}

// execSwitch evaluates a tagged switch with constant-comparable cases.
func (ti *valInterp) execSwitch(s *ast.SwitchStmt) (bool, error) {
	if s.Init != nil {
		return false, fmt.Errorf("switch statements with init clauses are not interpretable")
	}
	var tag int64
	var hasTag bool
	if s.Tag != nil {
		var err error
		if tag, err = ti.evalExpr(s.Tag); err != nil {
			return false, err
		}
		hasTag = true
	}
	var deflt *ast.CaseClause
	for _, clause := range s.Body.List {
		cc := clause.(*ast.CaseClause)
		if cc.List == nil {
			deflt = cc
			continue
		}
		for _, e := range cc.List {
			match := false
			if hasTag {
				v, err := ti.evalExpr(e)
				if err != nil {
					return false, err
				}
				match = v == tag
			} else {
				var err error
				if match, err = ti.evalBool(e); err != nil {
					return false, err
				}
			}
			if match {
				return ti.execCaseBody(cc)
			}
		}
	}
	if deflt != nil {
		return ti.execCaseBody(deflt)
	}
	return false, nil
}

func (ti *valInterp) execCaseBody(cc *ast.CaseClause) (bool, error) {
	for _, stmt := range cc.Body {
		if _, ok := stmt.(*ast.BranchStmt); ok {
			return false, fmt.Errorf("branch statements in switch cases are not interpretable")
		}
		returned, err := ti.execStmt(stmt)
		if returned || err != nil {
			return returned, err
		}
	}
	return false, nil
}

// execFor executes a constant-bounded fill loop, the only loop shape
// the subset admits.
func (ti *valInterp) execFor(s *ast.ForStmt) (bool, error) {
	loopVar, lo, hi, ok := boundedLoopIn(ti.pkg, s)
	if !ok {
		return false, fmt.Errorf("loop is not a constant-bounded fill loop")
	}
	for v := lo; v <= hi; v++ {
		ti.locals[loopVar] = v
		returned, err := ti.execBlock(s.Body)
		if returned || err != nil {
			return returned, err
		}
	}
	delete(ti.locals, loopVar)
	return false, nil
}

// evalExpr evaluates an integer-valued expression. Arithmetic is
// performed at int64 width; narrowing happens only at explicit
// conversions, so a constructor that relies on silent fixed-width
// wraparound diverges from its interpretation and is flagged — the
// conservative direction for a prover.
func (ti *valInterp) evalExpr(expr ast.Expr) (int64, error) {
	if v, ok := constIntIn(ti.pkg, expr); ok {
		return v, nil
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := ti.locals[ti.pkg.Info.Uses[e]]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("unbound identifier %s", e.Name)
	case *ast.BinaryExpr:
		x, err := ti.evalExpr(e.X)
		if err != nil {
			return 0, err
		}
		y, err := ti.evalExpr(e.Y)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case token.ADD:
			return x + y, nil
		case token.SUB:
			return x - y, nil
		case token.MUL:
			return x * y, nil
		case token.QUO:
			if y == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return x / y, nil
		case token.REM:
			if y == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return x % y, nil
		case token.AND:
			return x & y, nil
		case token.OR:
			return x | y, nil
		case token.XOR:
			return x ^ y, nil
		case token.AND_NOT:
			return x &^ y, nil
		case token.SHL:
			if y < 0 || y > 63 {
				return 0, fmt.Errorf("shift count %d out of range", y)
			}
			return x << uint64(y), nil
		case token.SHR:
			if y < 0 || y > 63 {
				return 0, fmt.Errorf("shift count %d out of range", y)
			}
			return x >> uint64(y), nil
		}
		return 0, fmt.Errorf("operator %s is not interpretable", e.Op)
	case *ast.UnaryExpr:
		x, err := ti.evalExpr(e.X)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case token.SUB:
			return -x, nil
		case token.ADD:
			return x, nil
		}
		return 0, fmt.Errorf("unary operator %s is not interpretable", e.Op)
	case *ast.CallExpr:
		// The only calls in the subset are integer type conversions,
		// which narrow to the destination width.
		if len(e.Args) != 1 {
			return 0, fmt.Errorf("call %s is not a conversion", types.ExprString(e.Fun))
		}
		tv, ok := ti.pkg.Info.Types[e.Fun]
		if !ok || !tv.IsType() {
			return 0, fmt.Errorf("call %s is not a conversion", types.ExprString(e.Fun))
		}
		x, err := ti.evalExpr(e.Args[0])
		if err != nil {
			return 0, err
		}
		return truncateToType(x, tv.Type)
	}
	return 0, fmt.Errorf("expression %T is not interpretable", expr)
}

// evalBool evaluates a boolean condition over integer operands.
func (ti *valInterp) evalBool(expr ast.Expr) (bool, error) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND, token.LOR:
			x, err := ti.evalBool(e.X)
			if err != nil {
				return false, err
			}
			if e.Op == token.LAND && !x {
				return false, nil
			}
			if e.Op == token.LOR && x {
				return true, nil
			}
			return ti.evalBool(e.Y)
		}
		x, err := ti.evalExpr(e.X)
		if err != nil {
			return false, err
		}
		y, err := ti.evalExpr(e.Y)
		if err != nil {
			return false, err
		}
		switch e.Op {
		case token.EQL:
			return x == y, nil
		case token.NEQ:
			return x != y, nil
		case token.LSS:
			return x < y, nil
		case token.LEQ:
			return x <= y, nil
		case token.GTR:
			return x > y, nil
		case token.GEQ:
			return x >= y, nil
		}
		return false, fmt.Errorf("comparison %s is not interpretable", e.Op)
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			v, err := ti.evalBool(e.X)
			return !v, err
		}
	}
	return false, fmt.Errorf("condition %s is not interpretable", types.ExprString(expr))
}

// truncateToType narrows an int64 value to the width and signedness of
// a basic integer type, matching Go conversion semantics.
func truncateToType(v int64, t types.Type) (int64, error) {
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return 0, fmt.Errorf("conversion to non-integer type %s", t)
	}
	switch b.Kind() {
	case types.Int8:
		return int64(int8(v)), nil
	case types.Int16:
		return int64(int16(v)), nil
	case types.Int32:
		return int64(int32(v)), nil
	case types.Int, types.Int64:
		return v, nil
	case types.Uint8:
		return int64(uint8(v)), nil
	case types.Uint16:
		return int64(uint16(v)), nil
	case types.Uint32:
		return int64(uint32(v)), nil
	case types.Uint, types.Uint64, types.Uintptr:
		// Values the prover interprets stay far below 2^63; a
		// conversion that would wrap is outside the subset.
		if v < 0 {
			return 0, fmt.Errorf("negative value %d converted to %s", v, b)
		}
		return v, nil
	}
	return 0, fmt.Errorf("conversion to %s is not interpretable", b)
}
