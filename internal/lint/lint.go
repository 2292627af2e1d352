// Package lint is a from-scratch static-analysis framework for this
// repository, built on the standard library only (go/parser, go/ast,
// go/types, go/importer — no golang.org/x/tools). It exists because the
// MEL engine's performance results and the scan service's correctness
// rest on conventions that ordinary tests cannot see: the zero-alloc
// scan path, the sentinel-error↔wire-code bijection, the lock
// discipline and lock order around the pool and verdict cache. Each
// convention gets an analyzer; `mellint ./...` machine-checks all of
// them and gates every future change through `make lint` / `make ci`.
// Decode tables are not checked here from their source: internal/x86
// tests its linked opcode maps, and melverify (`mellint -verify`)
// holds internal/mel's packed tables to the spec decoder.
//
// The framework is module-scoped rather than package-scoped: analyzers
// receive every package of the module at once, type-checked against gc
// export data, because invariants like "nothing reachable from a
// //mel:hotpath function allocates or uses fmt" are properties of the
// whole module, not of one package. Analyzers share their models
// instead of rebuilding them: one call graph and one SCC helper
// (callgraph.go, dataflow.go), one per-function IR (ir.go), one
// flow-sensitive solver (dataflow.go), and one lock model
// (lockstate.go) of which lockcheck and lockorder are two reports.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
	"time"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the import path, Dir the package directory on disk.
	Path string
	Dir  string
	// Files are the parsed source files (comments included), in the
	// order go list reports them.
	Files []*ast.File
	// Types and Info are the go/types results for the package.
	Types *types.Package
	Info  *types.Info
	// Target marks packages the command-line patterns selected.
	// Non-target packages are loaded so module-wide analyses (the
	// //mel:hotpath call graph) can see their bodies, but diagnostics are
	// only reported inside targets.
	Target bool
}

// Module is the unit of analysis: every package of one Go module,
// sharing one FileSet.
type Module struct {
	// PkgPath is the module path from go.mod (e.g. "repro").
	PkgPath string
	// Dir is the module root directory.
	Dir  string
	Fset *token.FileSet
	// Pkgs holds the loaded packages in go list order.
	Pkgs []*Package

	// Shared dataflow facts, built once (under factsOnce) and read
	// concurrently by the analyzers Run executes in parallel.
	factsOnce sync.Once
	callGraph *CallGraph

	irMu    sync.Mutex
	irCache map[*ast.FuncDecl]*FuncIR
}

// CallGraph returns the module-wide static call graph, building it on
// first use. Safe for concurrent analyzers.
func (m *Module) CallGraph() *CallGraph {
	m.factsOnce.Do(func() { m.callGraph = buildCallGraph(m) })
	return m.callGraph
}

// FuncIR returns the dataflow IR for one declared function, building
// and caching it on first use. Safe for concurrent analyzers.
func (m *Module) FuncIR(pkg *Package, fd *ast.FuncDecl) *FuncIR {
	m.irMu.Lock()
	defer m.irMu.Unlock()
	if m.irCache == nil {
		m.irCache = make(map[*ast.FuncDecl]*FuncIR)
	}
	if ir, ok := m.irCache[fd]; ok {
		return ir
	}
	ir := buildFuncIR(pkg, fd)
	m.irCache[fd] = ir
	return ir
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's reporting context over one module.
type Pass struct {
	Module   *Module
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Module.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name is the identifier used in diagnostics and enable/disable
	// flags.
	Name string
	// Doc is a one-line description for -list and usage output.
	Doc string
	// Run inspects the module and reports findings through the pass.
	Run func(*Pass)
}

// Analyzers returns the full suite in stable order. The slice is
// freshly allocated; callers may filter it.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AllocFreeAnalyzer(),
		WireErrorsAnalyzer(),
		LockCheckAnalyzer(),
		AtomicCheckAnalyzer(),
		LeakCheckAnalyzer(),
		CtxCheckAnalyzer(),
		TaintCheckAnalyzer(),
		LockOrderAnalyzer(),
	}
}

// Run executes the given analyzers over the module — concurrently,
// each collecting into its own slice — and returns the merged
// diagnostics sorted by position then analyzer. The shared dataflow
// facts (call graph, per-function IR) are built before the fan-out so
// the analyzers only ever read them. Findings outside target packages
// are dropped: non-target packages exist only to give module-wide
// analyses complete visibility.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunTimed(m, analyzers)
	return diags
}

// AnalyzerTiming records one analyzer's wall time, for the lint-cost
// archive CI keeps as the suite grows.
type AnalyzerTiming struct {
	Analyzer string  `json:"analyzer"`
	Millis   float64 `json:"ms"`
}

// RunTimed is Run, additionally returning per-analyzer wall times in
// the analyzers' given order. Timings are wall-clock and so
// nondeterministic: callers must keep them out of byte-stable outputs
// (see FormatJSON's timings parameter).
func RunTimed(m *Module, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerTiming) {
	m.CallGraph()
	perAnalyzer := make([][]Diagnostic, len(analyzers))
	timings := make([]AnalyzerTiming, len(analyzers))
	var wg sync.WaitGroup
	for i, a := range analyzers {
		i, a := i, a
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			pass := &Pass{Module: m, analyzer: a, diags: &perAnalyzer[i]}
			a.Run(pass)
			timings[i] = AnalyzerTiming{
				Analyzer: a.Name,
				Millis:   float64(time.Since(start).Microseconds()) / 1000,
			}
		}()
	}
	wg.Wait()
	var diags []Diagnostic
	for _, d := range perAnalyzer {
		diags = append(diags, d...)
	}
	diags = filterTargets(m, diags)
	sort.Slice(diags, func(i, j int) bool {
		di, dj := diags[i], diags[j]
		if di.Pos.Filename != dj.Pos.Filename {
			return di.Pos.Filename < dj.Pos.Filename
		}
		if di.Pos.Line != dj.Pos.Line {
			return di.Pos.Line < dj.Pos.Line
		}
		if di.Pos.Column != dj.Pos.Column {
			return di.Pos.Column < dj.Pos.Column
		}
		if di.Analyzer != dj.Analyzer {
			return di.Analyzer < dj.Analyzer
		}
		return di.Message < dj.Message
	})
	return diags, timings
}

// filterTargets keeps diagnostics whose file belongs to a target
// package. Membership is decided by the target packages' own file
// lists (via the FileSet), not by directory: packages that share a
// directory — fixtures beside real code, external test packages —
// must not adopt each other's findings.
func filterTargets(m *Module, diags []Diagnostic) []Diagnostic {
	targetFiles := make(map[string]bool)
	for _, p := range m.Pkgs {
		if !p.Target {
			continue
		}
		for _, f := range p.Files {
			targetFiles[m.Fset.Position(f.Package).Filename] = true
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if targetFiles[d.Pos.Filename] {
			out = append(out, d)
		}
	}
	return out
}

// eachFunc calls fn for every function declaration with a body in the
// package, including methods.
func eachFunc(p *Package, fn func(*ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// isNamedType dereferences pointers, resolves aliases, and unwraps
// named types to answer "is this (a pointer to) the named type
// pkg.name". Alias resolution matters: with Go ≥ 1.22 materializing
// *types.Alias nodes, `type W = sync.WaitGroup` would otherwise defeat
// the match and silently disable leakcheck's join evidence.
func isNamedType(t types.Type, pkgPath, name string) bool {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name {
		return false
	}
	pkg := obj.Pkg()
	return pkg != nil && pkg.Path() == pkgPath
}
