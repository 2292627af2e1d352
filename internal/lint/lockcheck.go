package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockCheckAnalyzer enforces the repo's lock discipline on
// sync.Mutex/sync.RWMutex:
//
//   - a Lock/RLock must be released on every path out of the function,
//     either by a defer or by an explicit Unlock/RUnlock before each
//     return (and before falling off the end);
//   - lock state must be balanced across loop iterations;
//   - an exclusive Lock must not be held across a blocking channel send
//     or across net.Conn Read/Write — both can stall for arbitrary
//     time and turn a mutex into a system-wide convoy.
//
// Read locks are exempt from the held-across-send rule: the pool's
// admission path deliberately holds RLock across its queue send so
// Close cannot close the channel mid-send. Locks are those of the
// shared lock model (lockstate.go), keyed by source text; ambiguous
// ones are never reported, which keeps the check false-positive-free
// on conventional code.
func LockCheckAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockcheck",
		Doc:  "sync locks must unlock on every return path and exclusive locks must not be held across channel sends or net.Conn I/O",
		Run:  runLockCheck,
	}
}

func runLockCheck(pass *Pass) {
	for _, pkg := range pass.Module.Pkgs {
		netConn := lookupNetConn(pkg)
		ev := &lockEvents{
			acquire: func(lockOp, token.Pos, heldSet, heldSet) {},
			exit: func(pos token.Pos, held heldSet, atReturn bool) {
				for _, l := range held {
					switch {
					case l.deferred || l.ambiguous:
					case atReturn:
						pass.Reportf(pos, "%s is held at return without an Unlock on this path", lockName(l))
					default:
						pass.Reportf(pos, "%s is still held when the function returns", lockName(l))
					}
				}
			},
			iterEnd: func(body *ast.BlockStmt, entry, end heldSet) {
				for _, l := range end {
					if i := entry.find(l.lockOp); !l.ambiguous && (i < 0 || entry[i].deferred != l.deferred || entry[i].ambiguous) {
						pass.Reportf(body.Pos(), "%s is acquired and not released within one loop iteration", lockName(l))
					}
				}
				for _, l := range entry {
					if !l.deferred && !l.ambiguous && end.find(l.lockOp) < 0 {
						pass.Reportf(body.Pos(), "%s held at loop entry is released inside the loop body", lockName(l))
					}
				}
			},
			send: func(pos token.Pos, held heldSet) {
				if l, ok := exclusiveHeld(held); ok {
					pass.Reportf(pos, "channel send while %s is held: a full channel stalls every other lock holder", lockName(l))
				}
			},
			call: func(call *ast.CallExpr, held, _ heldSet) {
				l, locked := exclusiveHeld(held)
				sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !locked || netConn == nil || !isSel || (sel.Sel.Name != "Read" && sel.Sel.Name != "Write") {
					return
				}
				if t := pkg.Info.TypeOf(sel.X); t != nil && (types.Implements(t, netConn) || types.Implements(types.NewPointer(t), netConn)) {
					pass.Reportf(call.Pos(), "net.Conn %s while %s is held: peer-paced I/O under an exclusive lock", sel.Sel.Name, lockName(l))
				}
			},
		}
		eachFunc(pkg, func(fd *ast.FuncDecl) { walkFrame(pkg, ev, fd.Body, nil) })
	}
}

// exclusiveHeld returns an exclusive lock the frame holds (a deferred
// release still counts as held).
func exclusiveHeld(held heldSet) (heldLock, bool) {
	for _, l := range held {
		if !l.shared && !l.ambiguous {
			return l, true
		}
	}
	return heldLock{}, false
}

// lockName renders a held lock for diagnostics.
func lockName(l heldLock) string {
	if l.shared {
		return l.expr + " (read lock)"
	}
	return l.expr
}

// lookupNetConn finds the net.Conn interface through the package's
// imports; nil when the package does not import net (then no conn I/O
// can appear).
func lookupNetConn(pkg *Package) *types.Interface {
	for _, imp := range pkg.Types.Imports() {
		if obj, ok := imp.Scope().Lookup("Conn").(*types.TypeName); ok && imp.Path() == "net" {
			iface, _ := obj.Type().Underlying().(*types.Interface)
			return iface
		}
	}
	return nil
}
