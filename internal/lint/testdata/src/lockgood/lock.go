// Package lockgood is the positive lockcheck fixture: conventional
// lock shapes the analyzer must accept without a finding.
package lockgood

import "sync"

type store struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	vals  map[string]int
	queue chan int
}

// DeferStyle is the canonical lock-then-defer pattern.
func (s *store) DeferStyle(k string, v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[k] = v
}

// BranchStyle releases explicitly on every return path.
func (s *store) BranchStyle(k string) (int, bool) {
	s.mu.Lock()
	v, ok := s.vals[k]
	if !ok {
		s.mu.Unlock()
		return 0, false
	}
	s.mu.Unlock()
	return v, true
}

// ReadLockAcrossSend deliberately holds a read lock across a channel
// send — the pool's admission idiom, which must stay legal.
func (s *store) ReadLockAcrossSend(v int) {
	s.rw.RLock()
	s.queue <- v
	s.rw.RUnlock()
}

// ClosureDefer releases through an immediately deferred closure.
func (s *store) ClosureDefer(k string) int {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
	}()
	return s.vals[k]
}

// InvokedInPlace locks inside an immediately invoked literal that
// balances its own lock.
func (s *store) InvokedInPlace(k string) int {
	var v int
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		v = s.vals[k]
	}()
	return v
}

// DeferredClosureLock takes and releases the lock inside a deferred
// closure, which runs at return.
func (s *store) DeferredClosureLock(k string) {
	defer func() {
		s.mu.Lock()
		s.vals[k]++
		s.mu.Unlock()
	}()
}

// SumUntilNegative keeps the lock held across continue and break.
func (s *store) SumUntilNegative(keys []string) int {
	n := 0
	s.mu.Lock()
	for _, k := range keys {
		if k == "" {
			continue
		}
		if s.vals[k] < 0 {
			break
		}
		n += s.vals[k]
	}
	s.mu.Unlock()
	return n
}

// MaybeLocked locks on one branch only: the join is ambiguous, and
// ambiguity is never reported.
func (s *store) MaybeLocked(k string, lock bool) {
	if lock {
		s.mu.Lock()
	}
	s.vals[k]++
	if lock {
		s.mu.Unlock()
	}
}

// Swap locks two stores of the same type; each source expression pairs
// with its own unlock, and they are never nested.
func Swap(a, b *store, k string) {
	a.mu.Lock()
	v := a.vals[k]
	a.mu.Unlock()
	b.mu.Lock()
	b.vals[k] = v
	b.mu.Unlock()
}

// LocalMutex guards a counter with a function-local mutex.
func LocalMutex(n int) int {
	var mu sync.Mutex
	total := 0
	for i := 0; i < n; i++ {
		mu.Lock()
		total += i
		mu.Unlock()
	}
	return total
}

// GotoRelease leaves through a label that only the goto reaches; the
// code there releases the lock.
func (s *store) GotoRelease(k string) int {
	s.mu.Lock()
	if _, ok := s.vals[k]; !ok {
		goto done
	}
	s.vals[k]++
	s.mu.Unlock()
	return 1
done:
	s.mu.Unlock()
	return 0
}
