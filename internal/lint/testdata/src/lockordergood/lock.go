// Package lockordergood is the positive lockorder fixture: two locks
// always nested in the same order, release-before-reacquire, and
// same-package nesting only — a consistent order graph with no cycle.
package lockordergood

import "sync"

type front struct {
	mu sync.Mutex
	n  int
}

type back struct {
	mu sync.Mutex
	n  int
}

var (
	f = &front{}
	b = &back{}
)

// pushOne nests back under front: the canonical order.
func pushOne() {
	f.mu.Lock()
	defer f.mu.Unlock()
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	f.n++
}

// pushTwo keeps the same front→back order on another path.
func pushTwo() {
	f.mu.Lock()
	b.mu.Lock()
	b.n += 2
	b.mu.Unlock()
	f.n += 2
	f.mu.Unlock()
}

// handoff releases the front lock before taking the back lock: no
// nesting, no edge.
func handoff() {
	f.mu.Lock()
	f.n++
	f.mu.Unlock()
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// invoked nests back under front inside an immediately invoked literal,
// in the canonical order.
func invoked() {
	f.mu.Lock()
	defer f.mu.Unlock()
	func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.n++
	}()
	f.n++
}

// deferredCount bumps front from a deferred closure, after the body
// has released back.
func deferredCount() {
	defer func() {
		f.mu.Lock()
		f.n++
		f.mu.Unlock()
	}()
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// drain takes back under front per item, leaving early by continue and
// break with front held: every path keeps the front→back order.
func drain(xs []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, x := range xs {
		if x == 0 {
			continue
		}
		if x < 0 {
			break
		}
		b.mu.Lock()
		b.n += x
		b.mu.Unlock()
	}
}

// either holds front on one branch only when it takes back: front is
// ambiguous after the join and adds no edge.
func either(fast bool) {
	if fast {
		f.mu.Lock()
	}
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	if fast {
		f.mu.Unlock()
	}
}

// localFirst nests front under a function-local mutex, which has no
// cross-function identity and adds no edge.
func localFirst() {
	var mu sync.Mutex
	mu.Lock()
	f.mu.Lock()
	f.n++
	f.mu.Unlock()
	mu.Unlock()
}
