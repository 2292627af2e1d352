package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the interprocedural half of the dataflow layer: one
// module-wide static call graph, built once per Module and shared by
// every analyzer that reasons across function boundaries (allocfree,
// leakcheck, taintcheck, lockorder). Before it existed each analyzer re-indexed
// every function body and re-derived its own callee edges; now the
// traversal is computed once, under Run's facts phase, and the
// analyzers only walk it.

// GraphFunc is one module function in the call graph.
type GraphFunc struct {
	// Key is the canonical cross-package identity (see funcKey).
	Key string
	// Decl is the declaration, always with a non-nil body.
	Decl *ast.FuncDecl
	// Pkg is the package the declaration lives in.
	Pkg *Package
	// Callees are the keys of every function the body calls through a
	// static edge, in source order (duplicates preserved — edges are
	// cheap and order is what keeps diagnostics deterministic).
	Callees []string
	// Hot records the //mel:hotpath directive on the declaration.
	Hot bool
}

// CallGraph is the module-wide static call graph: every declared
// function with a body, each with its static callee edges. Dynamic
// calls (interface methods, function values) have no edge; analyses
// over the graph are about what the compiler can see.
type CallGraph struct {
	// Funcs indexes the graph by canonical key.
	Funcs map[string]*GraphFunc
	// order preserves source order for deterministic traversals.
	order []string
}

// buildCallGraph indexes every function body in the module and records
// its static callee edges.
func buildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{Funcs: make(map[string]*GraphFunc)}
	for _, pkg := range m.Pkgs {
		pkg := pkg
		eachFunc(pkg, func(fd *ast.FuncDecl) {
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				return
			}
			gf := &GraphFunc{
				Key:  funcKey(obj),
				Decl: fd,
				Pkg:  pkg,
				Hot:  hasHotpathDirective(fd),
			}
			gf.Callees = staticCallees(pkg, fd)
			if _, dup := g.Funcs[gf.Key]; !dup {
				g.order = append(g.order, gf.Key)
			}
			g.Funcs[gf.Key] = gf
		})
	}
	return g
}

// HotMember is one function of the //mel:hotpath closure, with the
// root that first pulled it in (for diagnostics).
type HotMember struct {
	Fn   *GraphFunc
	Root string
}

// HotClosure returns every function reachable from a //mel:hotpath
// root through static calls, in deterministic BFS order. Each function
// appears once, attributed to the first root that reached it.
func (g *CallGraph) HotClosure() []HotMember {
	var queue []HotMember
	for _, key := range g.order {
		if gf := g.Funcs[key]; gf.Hot {
			queue = append(queue, HotMember{Fn: gf, Root: gf.Decl.Name.Name})
		}
	}
	reached := make(map[string]bool)
	var out []HotMember
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		if reached[m.Fn.Key] {
			continue
		}
		reached[m.Fn.Key] = true
		out = append(out, m)
		for _, callee := range m.Fn.Callees {
			if next, ok := g.Funcs[callee]; ok && !reached[callee] {
				queue = append(queue, HotMember{Fn: next, Root: m.Root})
			}
		}
	}
	return out
}

// Reach returns the set of functions reachable from start (inclusive)
// through static calls, bounded to maxDepth edges (maxDepth < 0 means
// unbounded). leakcheck uses a shallow bound so join evidence must sit
// near the goroutine entry, not anywhere in a deep call tree.
func (g *CallGraph) Reach(start string, maxDepth int) []*GraphFunc {
	type item struct {
		key   string
		depth int
	}
	seen := map[string]bool{}
	var out []*GraphFunc
	queue := []item{{start, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if seen[it.key] {
			continue
		}
		seen[it.key] = true
		gf, ok := g.Funcs[it.key]
		if !ok {
			continue
		}
		out = append(out, gf)
		if maxDepth >= 0 && it.depth >= maxDepth {
			continue
		}
		for _, callee := range gf.Callees {
			if !seen[callee] {
				queue = append(queue, item{callee, it.depth + 1})
			}
		}
	}
	return out
}

// HotpathDirective is the doc-comment directive that marks a function
// as part of an allocation-free hot path. The directive covers the
// function and everything it statically calls within the module.
const HotpathDirective = "//mel:hotpath"

// hasHotpathDirective reports whether the function's doc comment block
// contains the //mel:hotpath directive line.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == HotpathDirective {
			return true
		}
	}
	return false
}

// funcKey canonicalizes a function object to a cross-package key:
// pkgpath.Recv.Name for methods, pkgpath.Name for functions. Objects
// seen through export data and objects seen through source checking
// produce the same key, which is what lets the call graph cross
// package boundaries.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := types.Unalias(t).(*types.Named); isNamed {
			return pkg + "." + named.Obj().Name() + "." + fn.Name()
		}
		// Interface receivers and other shapes never match a concrete
		// body in the index; give them a non-colliding key.
		return pkg + ".(" + t.String() + ")." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// callTargetKey resolves a call expression to the key of its static
// target, if it has one.
func callTargetKey(pkg *Package, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
		return funcKey(fn), true
	}
	return "", false
}

// staticCallees returns the keys of every function the body calls
// through a static edge: direct calls and concrete method calls,
// including those inside function literals defined in the body.
func staticCallees(pkg *Package, fd *ast.FuncDecl) []string {
	var out []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, ok := callTargetKey(pkg, call); ok {
			out = append(out, key)
		}
		return true
	})
	return out
}
