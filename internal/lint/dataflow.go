package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the flow-sensitive third layer of the dataflow stack,
// on top of the per-function IR (ir.go) and the module call graph
// (callgraph.go). It contributes three reusable pieces:
//
//   - SCCs: the condensation of the call graph in callee-first order,
//     so interprocedural analyses can compute per-function summaries
//     bottom-up and iterate only inside recursive components;
//   - FlowState/FlowMask: a per-object fact lattice — bit 0 means
//     "definitely derived from a hostile source", bits 1..63 mean
//     "derived from parameter i-1" — whose union-merge keeps worklist
//     iteration monotone;
//   - solveFlow/replayFlow: a forward worklist fixpoint over a
//     frame's basic blocks with branch-edge refinement (Block.CondTrue
//     and CondFalse carry the labels), plus a deterministic replay
//     that hands every node its in-force state once the block entry
//     states have stabilized.
//
// taintcheck is the first client; the layer is analyzer-agnostic — a
// client plugs in its own transfer function (how facts move through a
// statement) and refinement (how a branch condition kills facts).

// FlowMask is the per-object fact set of one flow analysis: bit 0
// (FlowDef) marks values definitely derived from a source, bit i+1
// marks values derived from the function's i'th parameter (receiver
// first). Parameter bits are what per-function summaries are made of:
// re-binding them to the argument masks at a call site translates a
// callee fact into a caller fact.
type FlowMask uint64

// FlowDef is the "definitely from a hostile source" bit.
const FlowDef FlowMask = 1

// ParamBit returns the mask bit tracking dependence on parameter i.
// Parameters beyond 62 are not tracked (no Go function here comes
// close); they get an empty mask, which only loses precision.
func ParamBit(i int) FlowMask {
	if i < 0 || i > 62 {
		return 0
	}
	return FlowMask(1) << (i + 1)
}

// ParamBits iterates the parameter indices present in the mask.
func (m FlowMask) ParamBits(fn func(i int)) {
	for i := 0; i <= 62; i++ {
		if m&(FlowMask(1)<<(i+1)) != 0 {
			fn(i)
		}
	}
}

// FlowState maps in-scope objects to their current fact mask. Absent
// objects have the empty mask.
type FlowState map[types.Object]FlowMask

func cloneFlow(st FlowState) FlowState {
	out := make(FlowState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// mergeFlow unions src into dst and reports whether dst changed.
func mergeFlow(dst, src FlowState) bool {
	changed := false
	for k, v := range src {
		if dst[k]|v != dst[k] {
			dst[k] |= v
			changed = true
		}
	}
	return changed
}

// flowClient is one analysis plugged into the solver.
type flowClient interface {
	// transfer updates st in place for one atomic block node.
	transfer(st FlowState, n ast.Node)
	// refine updates st in place for taking the labeled branch edge of
	// a block whose condition is cond: branch is true for the CondTrue
	// edge. Refinement may only clear facts (kill), never introduce
	// them — that keeps the fixpoint monotone.
	refine(st FlowState, cond ast.Expr, branch bool)
}

// solveFlow runs the forward worklist fixpoint over the frame's
// reachable blocks, starting the entry block from entry, and returns
// the stabilized per-block entry states. States merge by union at
// joins; the labeled true/false edges of two-way branches are refined
// through the client before merging.
func solveFlow(f *FuncIR, entry FlowState, c flowClient) map[*Block]FlowState {
	if len(f.Blocks) == 0 {
		return nil
	}
	ins := map[*Block]FlowState{f.Blocks[0]: cloneFlow(entry)}
	// The worklist holds block indices so iteration order is stable.
	idx := make(map[*Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		idx[b] = i
	}
	work := []*Block{f.Blocks[0]}
	queued := map[*Block]bool{f.Blocks[0]: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out := cloneFlow(ins[blk])
		for _, n := range blk.Nodes {
			c.transfer(out, n)
		}
		for _, succ := range blk.Succs {
			st := out
			if blk.Cond != nil && (succ == blk.CondTrue || succ == blk.CondFalse) {
				st = cloneFlow(out)
				c.refine(st, blk.Cond, succ == blk.CondTrue)
			}
			in, ok := ins[succ]
			if !ok {
				ins[succ] = cloneFlow(st)
			} else if !mergeFlow(in, st) {
				continue
			}
			if !queued[succ] {
				queued[succ] = true
				// Keep the worklist roughly in block order; exactness
				// does not matter for correctness, only determinism.
				pos := len(work)
				for i, w := range work {
					if idx[w] > idx[succ] {
						pos = i
						break
					}
				}
				work = append(work, nil)
				copy(work[pos+1:], work[pos:])
				work[pos] = succ
			}
		}
	}
	return ins
}

// replayFlow re-walks every reachable block from its stabilized entry
// state, in block order, calling visit with the state in force before
// each node and then applying the client's transfer. This is where a
// client reports: during solveFlow the same block runs many times.
func replayFlow(f *FuncIR, ins map[*Block]FlowState, c flowClient, visit func(n ast.Node, st FlowState)) {
	for _, blk := range f.Blocks {
		in, ok := ins[blk]
		if !ok {
			continue // statically unreachable
		}
		st := cloneFlow(in)
		for _, n := range blk.Nodes {
			visit(n, st)
			c.transfer(st, n)
		}
	}
}

// paramObjects returns the function's parameter objects in summary
// order: receiver first (when present), then the declared parameters.
// Nil entries stand for unnamed (or blank) parameters.
func paramObjects(pkg *Package, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	bind := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, field := range fields.List {
			if len(field.Names) == 0 {
				out = append(out, nil)
				continue
			}
			for _, name := range field.Names {
				obj := pkg.Info.Defs[name]
				if name.Name == "_" {
					obj = nil
				}
				out = append(out, obj)
			}
		}
	}
	bind(fd.Recv)
	bind(fd.Type.Params)
	return out
}

// resultObjects returns the named result objects (nil for unnamed
// results), in declaration order.
func resultObjects(pkg *Package, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Results == nil {
		return out
	}
	for _, field := range fd.Type.Results.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			obj := pkg.Info.Defs[name]
			if name.Name == "_" {
				obj = nil
			}
			out = append(out, obj)
		}
	}
	return out
}

// ParamSink records, in a function's summary, that a parameter
// reaches a dangerous operation without a dominating bounds guard.
// What is the human-readable description of the operation ("an
// allocation size", "a slice index"), already attributed to the
// function where the operation lives.
type ParamSink struct {
	Param int
	What  string
	Pos   token.Pos
}

// FlowSummary is a function's interprocedural effect, in terms of its
// parameters: Results holds one mask per result value (parameter bits
// plus FlowDef when a source inside the callee taints the result);
// Sinks lists parameters that flow into unguarded dangerous
// operations. Summaries are computed callee-first along SCCs and
// translated at call sites by re-binding parameter bits to argument
// masks.
type FlowSummary struct {
	Results []FlowMask
	Sinks   []ParamSink
}

func (s *FlowSummary) equal(o *FlowSummary) bool {
	if (s == nil) != (o == nil) {
		return false
	}
	if s == nil {
		return true
	}
	if len(s.Results) != len(o.Results) || len(s.Sinks) != len(o.Sinks) {
		return false
	}
	for i := range s.Results {
		if s.Results[i] != o.Results[i] {
			return false
		}
	}
	for i := range s.Sinks {
		if s.Sinks[i] != o.Sinks[i] {
			return false
		}
	}
	return true
}

// SCCs returns the strongly connected components of the call graph in
// callee-first order: every component appears before any component
// that calls into it. Functions inside a component keep source order.
// This is the traversal order for bottom-up summary computation —
// non-recursive callees are final by the time a caller is analyzed,
// and mutual recursion is confined to iterating one component.
func (g *CallGraph) SCCs() [][]*GraphFunc {
	comps := stronglyConnected(g.order, func(key string) []string { return g.Funcs[key].Callees })
	out := make([][]*GraphFunc, len(comps))
	for i, comp := range comps {
		for _, key := range comp {
			out[i] = append(out[i], g.Funcs[key])
		}
	}
	return out
}

// stronglyConnected is an iterative Tarjan over nodes, visited in the
// given order with successors in succ's order; successors outside
// nodes are ignored. Components come out callee-first — each before
// any component with an edge into it — with members in nodes order.
func stronglyConnected(nodes []string, succ func(string) []string) [][]string {
	pos := make(map[string]int, len(nodes))
	for i, n := range nodes {
		pos[n] = i
	}
	index := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool)
	var stack []string
	var comps [][]string
	type frame struct {
		node string
		succ []string
		edge int
	}
	var frames []frame
	enter := func(n string) {
		index[n] = len(index)
		low[n] = index[n]
		stack = append(stack, n)
		onStack[n] = true
		frames = append(frames, frame{node: n, succ: succ(n)})
	}
	for _, root := range nodes {
		if _, seen := index[root]; seen {
			continue
		}
		enter(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.edge < len(f.succ) {
				w := f.succ[f.edge]
				f.edge++
				if _, ok := pos[w]; !ok {
					continue
				}
				if _, seen := index[w]; !seen {
					enter(w)
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			n := f.node
			frames = frames[:len(frames)-1]
			if low[n] == index[n] {
				var comp []string
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp = append(comp, top)
					if top == n {
						break
					}
				}
				sort.Slice(comp, func(i, j int) bool { return pos[comp[i]] < pos[comp[j]] })
				comps = append(comps, comp)
			}
			if len(frames) > 0 {
				if p := frames[len(frames)-1].node; low[n] < low[p] {
					low[p] = low[n]
				}
			}
		}
	}
	return comps
}
