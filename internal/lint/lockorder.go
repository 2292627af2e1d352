package lint

import (
	"go/ast"
	"go/token"
	"maps"
	"slices"
	"strings"
)

// lockorder: the pool, verdict cache, flight recorder, proxy, and
// client each guard their state with their own mutex, and requests
// cross all of them on one call path. Two paths that take the same
// pair of locks in opposite orders deadlock the daemon the first time
// they interleave — invisible to lockcheck, since each function in the
// cycle is balanced on its own.
//
// Over the shared lock model (lockstate.go), every acquisition made
// while another canonical lock is held is an edge held→acquired.
// Transitive acquisition summaries, computed callee-first along
// call-graph SCCs, turn "calls f while holding A" into "acquires B
// while holding A" when f (or anything it calls) locks B. Findings on
// the global graph:
//
//   - a cycle (locks acquired in inconsistent orders), reported once
//     per participating edge at the acquisition that witnesses it;
//   - a self-edge (a lock acquired while already held, directly or
//     through calls): self-deadlock for a Mutex, writer-starved
//     deadlock for a recursive RLock;
//   - a cross-package nested acquisition: legal today, but the raw
//     material of tomorrow's cycle, so it must be visible and
//     deliberately baselined with the intended order.

// LockOrderAnalyzer returns the module-wide lock-order analyzer.
func LockOrderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "module-wide lock-order graph must be acyclic; nested cross-subsystem acquisitions are surfaced",
		Run:  runLockOrder,
	}
}

// loEdge is one held→acquired edge with its first witness.
type loEdge struct {
	from, to lockOp
	pos      token.Pos
	via      string // " (via call to f)" for interprocedural edges
}

// loCall is a static call and the canonical locks held across it.
type loCall struct {
	callee string
	held   []lockOp
	pos    token.Pos
}

// addAcquire appends a to acqs unless its id is already there.
func addAcquire(acqs *[]lockOp, a lockOp) bool {
	if slices.ContainsFunc(*acqs, func(b lockOp) bool { return b.id == a.id }) {
		return false
	}
	*acqs = append(*acqs, a)
	return true
}

// canonicalHeld lists the caller's and the frame's locks that count as
// held for ordering: not ambiguous, not local.
func canonicalHeld(held, outer heldSet) []lockOp {
	var out []lockOp
	for _, l := range slices.Concat(outer, held) {
		if l.id != "" && !l.ambiguous {
			out = append(out, l.lockOp)
		}
	}
	return out
}

func runLockOrder(pass *Pass) {
	g := pass.Module.CallGraph()

	// Harvest each function's direct edges and calls; trans starts as
	// its direct acquisitions.
	edgesOf := make(map[string][]loEdge)
	callsOf := make(map[string][]loCall)
	trans := make(map[string][]lockOp)
	for _, key := range g.order {
		gf := g.Funcs[key]
		var acqs []lockOp
		var edges []loEdge
		var calls []loCall
		walkFrame(gf.Pkg, &lockEvents{
			acquire: func(op lockOp, pos token.Pos, held, outer heldSet) {
				if op.id == "" {
					return
				}
				for _, h := range canonicalHeld(held, outer) {
					edges = append(edges, loEdge{from: h, to: op, pos: pos})
				}
				addAcquire(&acqs, op)
			},
			call: func(call *ast.CallExpr, held, outer heldSet) {
				if callee, ok := callTargetKey(gf.Pkg, call); ok {
					calls = append(calls, loCall{callee: callee, held: canonicalHeld(held, outer), pos: call.Pos()})
				}
			},
			send:    func(token.Pos, heldSet) {},
			exit:    func(token.Pos, heldSet, bool) {},
			iterEnd: func(*ast.BlockStmt, heldSet, heldSet) {},
		}, gf.Decl.Body, nil)
		trans[key], edgesOf[key], callsOf[key] = acqs, edges, calls
	}

	// Close the summaries callee-first; recursive components iterate to
	// fixpoint (the sets only grow).
	for _, scc := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, gf := range scc {
				acqs := trans[gf.Key]
				for _, c := range callsOf[gf.Key] {
					for _, a := range trans[c.callee] {
						changed = addAcquire(&acqs, a) || changed
					}
				}
				trans[gf.Key] = acqs
			}
		}
	}

	// Assemble the global graph, first witness per edge: each
	// function's direct edges, then its call edges.
	var edges []loEdge
	succ := make(map[string][]string)
	record := func(e loEdge) {
		if !slices.Contains(succ[e.from.id], e.to.id) {
			succ[e.from.id] = append(succ[e.from.id], e.to.id)
			edges = append(edges, e)
		}
	}
	for _, key := range g.order {
		for _, e := range edgesOf[key] {
			record(e)
		}
		for _, c := range callsOf[key] {
			for _, a := range trans[c.callee] {
				for _, h := range c.held {
					record(loEdge{from: h, to: a, pos: c.pos, via: " (via call to " + g.Funcs[c.callee].Decl.Name.Name + ")"})
				}
			}
		}
	}

	// Locks in one multi-node strongly connected component are a cycle.
	cycleOf := make(map[string]int) // 1-based index into cycles
	var cycles []string
	for _, comp := range stronglyConnected(slices.Sorted(maps.Keys(succ)), func(id string) []string { return succ[id] }) {
		if len(comp) < 2 {
			continue
		}
		parts := make([]string, 0, len(comp)+1)
		for _, id := range append(comp, comp[0]) {
			parts = append(parts, shortLock(id))
		}
		cycles = append(cycles, strings.Join(parts, " → "))
		for _, id := range comp {
			cycleOf[id] = len(cycles)
		}
	}

	for _, e := range edges {
		from, to, c := shortLock(e.from.id), shortLock(e.to.id), cycleOf[e.from.id]
		switch {
		case e.from.id == e.to.id:
			pass.Reportf(e.pos, "lock %s acquired while already held%s: recursive acquisition deadlocks", from, e.via)
		case c != 0 && c == cycleOf[e.to.id]:
			pass.Reportf(e.pos, "acquiring %s while holding %s%s creates a lock-order cycle: %s", to, from, e.via, cycles[c-1])
		case e.from.pkg != e.to.pkg:
			pass.Reportf(e.pos, "%s acquired while holding %s%s: cross-subsystem nested acquisition; this order is now load-bearing", to, from, e.via)
		}
	}
}

// shortLock is a lock id without its import path's directories.
func shortLock(id string) string {
	return id[strings.LastIndex(id, "/")+1:]
}
