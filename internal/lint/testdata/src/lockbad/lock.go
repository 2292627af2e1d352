// Package lockbad is the negative lockcheck fixture: one function per
// violation class.
package lockbad

import (
	"net"
	"sync"
)

type box struct {
	mu    sync.Mutex
	vals  map[string]int
	queue chan int
}

// LeakOnReturn forgets the unlock on the early-return path.
func (b *box) LeakOnReturn(k string) int {
	b.mu.Lock()
	if v, ok := b.vals[k]; ok {
		return v
	}
	b.mu.Unlock()
	return 0
}

// LeakAtEnd never unlocks at all.
func (b *box) LeakAtEnd(k string, v int) {
	b.mu.Lock()
	b.vals[k] = v
}

// SendWhileLocked performs a blocking send under an exclusive lock.
func (b *box) SendWhileLocked(v int) {
	b.mu.Lock()
	b.queue <- v
	b.mu.Unlock()
}

// WriteWhileLocked does peer-paced conn I/O under an exclusive lock.
func (b *box) WriteWhileLocked(c net.Conn, p []byte) {
	b.mu.Lock()
	c.Write(p)
	b.mu.Unlock()
}

// UnbalancedLoop acquires once per iteration and never releases.
func (b *box) UnbalancedLoop(n int) {
	for i := 0; i < n; i++ {
		b.mu.Lock()
	}
}

// mulock aliases sync.Mutex. Go 1.22+ materializes the alias in the
// type checker, so the analyzer must resolve it before matching; an
// aliased mutex that leaks is still a leak.
type mulock = sync.Mutex

type aliasBox struct {
	mu mulock
}

// AliasLeak acquires through the alias and never releases.
func (b *aliasBox) AliasLeak() {
	b.mu.Lock()
}

// InvokedLeak leaves the lock held when an immediately invoked literal
// returns: the literal is a frame of its own.
func (b *box) InvokedLeak() {
	func() {
		b.mu.Lock()
	}()
	b.mu.Unlock()
}

// DeferredLeak locks inside a deferred closure and never unlocks.
func (b *box) DeferredLeak() {
	defer func() {
		b.mu.Lock()
		b.vals["x"]++
	}()
}

// SendInLoop sends with the lock held; the path that continues has
// released it first.
func (b *box) SendInLoop(xs []int) {
	for _, x := range xs {
		b.mu.Lock()
		if x < 0 {
			b.mu.Unlock()
			continue
		}
		b.queue <- x
		b.mu.Unlock()
	}
}

// HeldOnBothBranches returns with the lock held: both branches took
// it, so the join agrees.
func (b *box) HeldOnBothBranches(fast bool) int {
	if fast {
		b.mu.Lock()
	} else {
		b.mu.Lock()
		b.vals["slow"]++
	}
	return len(b.vals)
}

// Pair holds two boxes of the same type and forgets one unlock: the
// source text tells them apart.
func Pair(x, y *box) {
	x.mu.Lock()
	y.mu.Lock()
	y.vals["n"] = x.vals["n"]
	y.mu.Unlock()
}

// LocalLeak leaves a function-local mutex locked.
func LocalLeak() {
	var mu sync.Mutex
	mu.Lock()
}

// GotoLeak jumps past the unlock to a label that only the goto
// reaches, and returns from there with the lock held.
func (b *box) GotoLeak(k string) int {
	b.mu.Lock()
	if _, ok := b.vals[k]; !ok {
		goto missing
	}
	b.vals[k]++
	b.mu.Unlock()
	return 1
missing:
	return -1
}
