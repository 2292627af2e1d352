package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AllocFreeAnalyzer enforces the hot-path contract, interprocedurally:
// every function in the //mel:hotpath call-graph closure must be
// statically allocation-free and keep to the hot-path call discipline.
// It flags, in any reached body:
//
//   - make of a map or channel, make of a slice with a non-constant
//     size, and any make/new whose result escapes per the IR's escape
//     lattice (a constant-size make or a new(T) that provably stays
//     local is stack-allocated and allowed);
//   - append — the backing array may grow at any call;
//   - map assignments — inserts may allocate and grow the table;
//   - string concatenation and string↔[]byte/[]rune conversions;
//   - function literals whose closure escapes (returned, stored,
//     passed, sent) — a literal that stays local or runs in place is
//     allowed;
//   - composite literals whose storage escapes;
//   - boxing of non-pointer-shaped values into interfaces;
//   - any use of fmt or reflect;
//   - defer inside a loop: the deferred call list grows per iteration
//     and is heap allocated once the loop form defeats open-coding.
//
// The one idiom deliberately admitted is the pooled grow-to-fit guard
// (`if cap(s.buf) < n { s.buf = make(...) }`): allocations inside a
// cap/len/nil-guarded if-body are warm-up cost, invisible at steady
// state, and exactly how the scan state reaches 0 allocs/op. What the
// guard cannot excuse (appends, map writes) stays flagged and must be
// justified line-by-line in lint.baseline.
//
// Dynamic calls (interface methods, function values) end the closure;
// the contract is about what the compiler can see. This turns the
// engine bench's "0 allocs/op" (E19, engine_scan_benign_4k) from a
// benchmark observation into a statically checked property of
// Engine.Scan, DecodeInto, Pool.admit, the verdict cache, and the
// tracing span methods.
func AllocFreeAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "allocfree",
		Doc:  "functions in the //mel:hotpath closure must be statically allocation-free (make/new/append/map writes/string concat/boxing/escaping closures), use neither fmt nor reflect, and defer nothing inside a loop",
		Run:  runAllocFree,
	}
}

func runAllocFree(pass *Pass) {
	for _, m := range pass.Module.CallGraph().HotClosure() {
		suffix := hotSuffix(m)
		ir := pass.Module.FuncIR(m.Fn.Pkg, m.Fn.Decl)
		for _, frame := range ir.Frames() {
			checkAllocSites(pass, m.Fn.Pkg, ir, frame, suffix)
		}
		checkInterfaceBoxing(pass, m.Fn.Pkg, m.Fn.Decl, suffix)
		checkBannedPackages(pass, m, suffix)
	}
}

// hotSuffix renders the attribution tail shared by all hot-closure
// diagnostics.
func hotSuffix(m HotMember) string {
	where := m.Fn.Decl.Name.Name
	if where != m.Root {
		return fmt.Sprintf(" (in %s, reached from //mel:hotpath %s)", where, m.Root)
	}
	return fmt.Sprintf(" (in //mel:hotpath %s)", where)
}

// checkBannedPackages flags any use of fmt or reflect.
func checkBannedPackages(pass *Pass, m HotMember, suffix string) {
	ast.Inspect(m.Fn.Decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := m.Fn.Pkg.Info.Uses[id]; obj != nil && obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "fmt", "reflect":
					pass.Reportf(id.Pos(), "use of %s.%s on a hot path%s", obj.Pkg().Path(), obj.Name(), suffix)
				}
			}
		}
		return true
	})
}

// checkAllocSites walks one frame of the IR and reports allocation
// sites the escape lattice cannot clear, and defers at a frame-local
// loop depth above zero (a defer inside a literal is not in the outer
// loop).
func checkAllocSites(pass *Pass, pkg *Package, ir, frame *FuncIR, suffix string) {
	info := pkg.Info
	frame.Walk(func(n ast.Node, loopDepth int) {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if loopDepth > 0 {
				pass.Reportf(n.Pos(), "defer inside a loop on a hot path%s", suffix)
			}
		case *ast.CallExpr:
			checkAllocCall(pass, pkg, ir, n, suffix)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if isMapIndex(info, lhs) {
					pass.Reportf(lhs.Pos(), "map assignment may allocate on a hot path%s", suffix)
				}
			}
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(info, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "string concatenation allocates on a hot path%s", suffix)
			}
		case *ast.IncDecStmt:
			if isMapIndex(info, n.X) {
				pass.Reportf(n.X.Pos(), "map assignment may allocate on a hot path%s", suffix)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(info, n) && !isConstExpr(info, n) {
				pass.Reportf(n.Pos(), "string concatenation allocates on a hot path%s", suffix)
			}
		case *ast.FuncLit:
			if !ir.LitImmediate(n) && ir.LitEscapes(n) {
				pass.Reportf(n.Pos(), "escaping closure allocates on a hot path%s", suffix)
			}
		case *ast.CompositeLit:
			if compositeAllocates(info, n, ir) && ir.CompEscapes(n) {
				pass.Reportf(n.Pos(), "composite literal escapes to the heap on a hot path%s", suffix)
			}
		}
	})
}

// checkAllocCall classifies one call expression: make/new builtins,
// append, and allocating conversions.
func checkAllocCall(pass *Pass, pkg *Package, ir *FuncIR, call *ast.CallExpr, suffix string) {
	info := pkg.Info
	if tvFun, ok := info.Types[ast.Unparen(call.Fun)]; ok && tvFun.IsType() {
		if len(call.Args) == 1 {
			if from, to, bad := stringConvKinds(info, call.Args[0], tvFun.Type); bad {
				pass.Reportf(call.Pos(), "%s to %s conversion allocates on a hot path%s", from, to, suffix)
			}
		}
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	builtin, ok := info.Uses[id].(*types.Builtin)
	if !ok {
		return
	}
	switch builtin.Name() {
	case "append":
		pass.Reportf(call.Pos(), "append may grow its backing array on a hot path%s", suffix)
	case "make":
		tv, ok := info.Types[call]
		if !ok {
			return
		}
		switch types.Unalias(tv.Type).Underlying().(type) {
		case *types.Map:
			pass.Reportf(call.Pos(), "make of a map allocates on a hot path%s", suffix)
		case *types.Chan:
			pass.Reportf(call.Pos(), "make of a channel allocates on a hot path%s", suffix)
		case *types.Slice:
			if ir.GrowGuarded(call.Pos()) {
				return // pooled grow-to-fit warm-up
			}
			for _, size := range call.Args[1:] {
				if !isConstExpr(info, size) {
					pass.Reportf(call.Pos(), "make with a non-constant size allocates on a hot path%s", suffix)
					return
				}
			}
			if ir.AllocEscapes(call) {
				pass.Reportf(call.Pos(), "make result escapes to the heap on a hot path%s", suffix)
			}
		}
	case "new":
		if ir.GrowGuarded(call.Pos()) {
			return
		}
		if ir.AllocEscapes(call) {
			pass.Reportf(call.Pos(), "new result escapes to the heap on a hot path%s", suffix)
		}
	}
}

// isMapIndex reports whether e is an index expression over a map.
func isMapIndex(info *types.Info, e ast.Expr) bool {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[ix.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := types.Unalias(tv.Type).Underlying().(*types.Map)
	return isMap
}

// isStringExpr reports whether e has string type.
func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// isConstExpr reports whether the type checker folded e to a constant.
func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// compositeAllocates reports whether the composite literal owns heap
// storage when it escapes: slice and map literals allocate backing
// storage; struct and array literals are by-value copies — returned,
// passed, sent, or stored without allocating — unless their address is
// taken (&T{}), which is the form whose storage moves to the heap on
// escape. (Boxing a struct value into an interface also allocates, but
// the interface-boxing check reports that at the conversion site.)
func compositeAllocates(info *types.Info, cl *ast.CompositeLit, ir *FuncIR) bool {
	tv, ok := info.Types[cl]
	if !ok || tv.Type == nil {
		return true
	}
	switch types.Unalias(tv.Type).Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return ir.CompAddrTaken(cl)
}

// stringConvKinds reports conversions between string and []byte/[]rune
// — both directions copy.
func stringConvKinds(info *types.Info, arg ast.Expr, target types.Type) (from, to string, bad bool) {
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil || tv.Value != nil {
		return "", "", false // constants convert at compile time
	}
	src := tv.Type
	if isStringType(src) && isByteOrRuneSlice(target) {
		return "string", target.Underlying().String(), true
	}
	if isByteOrRuneSlice(src) && isStringType(target) {
		return src.Underlying().String(), "string", true
	}
	return "", "", false
}

func isStringType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (basic.Kind() == types.Byte || basic.Kind() == types.Rune ||
		basic.Kind() == types.Uint8 || basic.Kind() == types.Int32)
}

// checkInterfaceBoxing flags conversions of concrete non-pointer values
// into interface types in call arguments, returns, assignments, and
// conversions. Pointer-shaped values (pointers, channels, maps,
// functions) ride in the interface word without allocating and are
// allowed; everything else heap-allocates the boxed copy.
func checkInterfaceBoxing(pass *Pass, pkg *Package, fd *ast.FuncDecl, suffix string) {
	info := pkg.Info
	report := func(pos ast.Expr, target types.Type) {
		tv, ok := info.Types[pos]
		if !ok {
			return
		}
		if !boxesWhenConverted(tv, target) {
			return
		}
		pass.Reportf(pos.Pos(), "%s boxed into %s on a hot path%s", tv.Type.String(), target.String(), suffix)
	}
	retSigs := returnSignatures(info, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			fun := ast.Unparen(s.Fun)
			tvFun, ok := info.Types[fun]
			if !ok {
				return true
			}
			if tvFun.IsType() {
				// Explicit conversion T(x).
				if len(s.Args) == 1 {
					report(s.Args[0], tvFun.Type)
				}
				return true
			}
			sig, ok := tvFun.Type.Underlying().(*types.Signature)
			if !ok {
				return true // builtin or invalid
			}
			params := sig.Params()
			for i, arg := range s.Args {
				var pt types.Type
				switch {
				case sig.Variadic() && i >= params.Len()-1:
					if s.Ellipsis.IsValid() {
						continue // slice passed through, no per-element boxing
					}
					pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
				case i < params.Len():
					pt = params.At(i).Type()
				default:
					continue
				}
				report(arg, pt)
			}
		case *ast.ReturnStmt:
			sig, ok := retSigs[s]
			if !ok {
				return true
			}
			results := sig.Results()
			if len(s.Results) != results.Len() {
				return true // bare return or tuple forwarding
			}
			for i, r := range s.Results {
				report(r, results.At(i).Type())
			}
		case *ast.AssignStmt:
			if s.Tok.String() != "=" || len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, rhs := range s.Rhs {
				lhsTV, ok := info.Types[s.Lhs[i]]
				if !ok {
					continue
				}
				report(rhs, lhsTV.Type)
			}
		case *ast.ValueSpec:
			if s.Type == nil {
				return true
			}
			tv, ok := info.Types[s.Type]
			if !ok {
				return true
			}
			for _, v := range s.Values {
				report(v, tv.Type)
			}
		case *ast.SendStmt:
			chTV, ok := info.Types[s.Chan]
			if !ok {
				return true
			}
			if ch, ok := chTV.Type.Underlying().(*types.Chan); ok {
				report(s.Value, ch.Elem())
			}
		}
		return true
	})
}

// walkChildren visits the direct children of n with the given walker.
func walkChildren(n ast.Node, depth int, walk func(ast.Node, int)) {
	ast.Inspect(n, func(child ast.Node) bool {
		if child == nil || child == n {
			return child == n
		}
		walk(child, depth)
		return false
	})
}

// returnSignatures maps every return statement in the declaration —
// including those inside function literals — to the signature it
// returns from.
func returnSignatures(info *types.Info, fd *ast.FuncDecl) map[*ast.ReturnStmt]*types.Signature {
	out := make(map[*ast.ReturnStmt]*types.Signature)
	var walk func(n ast.Node, sig *types.Signature)
	walk = func(n ast.Node, sig *types.Signature) {
		switch s := n.(type) {
		case *ast.FuncLit:
			inner, _ := info.Types[s].Type.(*types.Signature)
			walkChildren(s.Body, 0, func(c ast.Node, _ int) { walk(c, inner) })
			return
		case *ast.ReturnStmt:
			if sig != nil {
				out[s] = sig
			}
		}
		walkChildren(n, 0, func(c ast.Node, _ int) { walk(c, sig) })
	}
	var declSig *types.Signature
	if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
		declSig, _ = obj.Type().(*types.Signature)
	}
	walk(fd.Body, declSig)
	return out
}

// boxesWhenConverted reports whether storing a value described by tv
// into target requires heap-boxing: target is an interface, the value
// is a typed concrete value, and its representation is not already a
// single pointer word.
func boxesWhenConverted(tv types.TypeAndValue, target types.Type) bool {
	if target == nil || tv.Type == nil {
		return false
	}
	if _, isIface := target.Underlying().(*types.Interface); !isIface {
		return false
	}
	src := tv.Type
	if src == types.Typ[types.UntypedNil] {
		return false
	}
	if basic, ok := src.(*types.Basic); ok && basic.Info()&types.IsUntyped != 0 {
		// Untyped constants convert at compile time; small ones use the
		// runtime's static boxes. Constant folding makes these cheap
		// enough that flagging them would mostly be noise.
		return false
	}
	switch src.Underlying().(type) {
	case *types.Interface:
		return false // already boxed
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored directly in the iface word
	}
	if basic, ok := src.Underlying().(*types.Basic); ok && basic.Kind() == types.UnsafePointer {
		return false
	}
	return true
}
