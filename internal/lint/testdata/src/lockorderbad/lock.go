// Package lockorderbad is the negative lockorder fixture: two locks
// taken in opposite orders on different paths, a recursive
// acquisition through a helper, and a cross-package nested
// acquisition. Every function is balanced on its own — lockcheck has
// nothing to say here; only the module-wide order graph sees the
// deadlocks.
package lockorderbad

import (
	"sync"

	"fixture/lockorderbad/sub"
)

type registry struct {
	mu sync.Mutex
	n  int
}

type journal struct {
	mu sync.RWMutex
	n  int
}

var (
	reg = &registry{}
	jnl = &journal{}
)

// regFirst nests the journal under the registry: one half of the
// cycle.
func regFirst() {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	jnl.mu.Lock()
	jnl.n++
	jnl.mu.Unlock()
	reg.n++
}

// jnlFirst nests the registry under the journal: the other half.
func jnlFirst() {
	jnl.mu.RLock()
	defer jnl.mu.RUnlock()
	reg.mu.Lock()
	reg.n++
	reg.mu.Unlock()
}

// bump locks the registry on its own: balanced and innocent.
func bump() {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.n++
}

// reenter calls bump while already holding the registry lock: a
// recursive acquisition visible only through the call graph.
func reenter() {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	bump()
}

// crossover holds the registry lock while taking the subsystem's
// package lock.
func crossover() {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	sub.Touch()
}

// invoked touches the subsystem inside an immediately invoked literal
// while holding the journal lock: the literal runs in place, so the
// nesting is real.
func invoked() {
	jnl.mu.Lock()
	defer jnl.mu.Unlock()
	func() {
		sub.Touch()
	}()
}

// deferredTouch touches the subsystem from a deferred closure. The
// closure runs with nothing the body took still held.
func deferredTouch() {
	defer func() {
		sub.Touch()
	}()
	jnl.mu.Lock()
	jnl.n++
	jnl.mu.Unlock()
}

// ledger is a third lock, so carry's nesting is an edge of its own.
type ledger struct {
	mu sync.Mutex
	n  int
}

var led = &ledger{}

// carry keeps the ledger lock across continue and break and touches
// the subsystem after the loop with it still held.
func carry(xs []int) {
	led.mu.Lock()
	defer led.mu.Unlock()
	for _, x := range xs {
		if x == 0 {
			continue
		}
		if x < 0 {
			break
		}
		led.n += x
	}
	sub.Touch()
}

// transfer nests two journals: source text tells the mutexes apart,
// but the order graph has one node per declaring type, so the nesting
// is a self-edge.
func transfer(a, b *journal) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	b.n += a.n
	b.mu.Unlock()
}

// localFirst holds a function-local mutex while taking the registry
// lock: the local mutex has no identity and adds no edge.
func localFirst() {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	reg.mu.Lock()
	reg.n++
	reg.mu.Unlock()
}
