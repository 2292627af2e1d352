// Race-mode hammer tests for the verdict LRU and the worker pool.
// Tier-1 runs with -race; these tests are deterministic — coordination
// is by channels and waitgroups, never sleeps.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// TestVerdictCacheConcurrentHammer: many goroutines get/put an
// overlapping key space; the cache must stay race-free, never exceed
// capacity, and every hit must return the verdict stored for that key.
func TestVerdictCacheConcurrentHammer(t *testing.T) {
	const (
		capacity = 64
		workers  = 16
		ops      = 4000
		keySpace = 256 // > capacity, so eviction churns constantly
	)
	c := newVerdictCache(capacity)
	keyOf := func(i int) cacheKey {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(i))
		return cacheKey{sum: sha256.Sum256(b[:]), content: i%2 == 0}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (w*31 + i) % keySpace
				key := keyOf(k)
				// The verdict MEL encodes the key, so a cross-key mixup is
				// detectable.
				if v, ok := c.get(key); ok && v.MEL != k {
					errs <- errors.New("cache returned another key's verdict")
					return
				}
				c.put(key, core.Verdict{MEL: k, Threshold: float64(k)})
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := c.len(); got > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", got, capacity)
	}
	// Post-hammer sanity: a fresh put is retrievable.
	k := keyOf(keySpace + 1)
	c.put(k, core.Verdict{MEL: 7})
	if v, ok := c.get(k); !ok || v.MEL != 7 {
		t.Fatalf("get after hammer = (%+v, %v)", v, ok)
	}
}

// TestPoolConcurrentHammer: goroutines hammer runOrSubmit and Do against a
// small pool whose cache holds fewer payloads than the hammer cycles
// through, so inline hits, queued misses and evictions interleave, and
// a share of submissions arrive already expired. Every call must
// resolve to exactly one of {verdict, ErrOverloaded,
// ErrDeadlineExceeded} with nothing lost or hung: an accepted
// submission's done runs exactly once, a shed one's never, and
// served + shed + deadline + error = submitted, both as the callers
// saw it and in the pool's counters.
func TestPoolConcurrentHammer(t *testing.T) {
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	cases, err := corpus.Dataset(21, 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(PoolConfig{Detector: det, Workers: 4, QueueDepth: 4, CacheSize: 3})
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 16
		ops     = 50
	)
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[string]int{}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				p := cases[(w+i)%len(cases)].Data
				if i%2 == 0 {
					// Blocking path.
					v, _, err := pool.Do(context.Background(), p)
					if err != nil {
						errs <- err
						return
					}
					if v.Threshold <= 0 {
						errs <- errors.New("implausible verdict from Do")
						return
					}
					mu.Lock()
					counts["do"]++
					mu.Unlock()
					continue
				}
				// Shedding path: both outcomes are legal; anything else is
				// a bug. Every seventh submission is already expired.
				var deadline time.Time
				if i%7 == 1 {
					deadline = time.Now().Add(-time.Millisecond)
				}
				var calls atomic.Int32
				done := make(chan error, 2)
				err := pool.runOrSubmit(p, deadline, nil, false, false, func(_ core.Verdict, _ bool, err error) {
					calls.Add(1)
					done <- err
				})
				switch {
				case err == nil:
					serveErr := <-done
					if n := calls.Load(); n != 1 {
						errs <- fmt.Errorf("done ran %d times", n)
						return
					}
					outcome := "submitted"
					switch {
					case errors.Is(serveErr, ErrDeadlineExceeded):
						outcome = "deadline"
					case serveErr != nil:
						errs <- serveErr
						return
					}
					mu.Lock()
					counts[outcome]++
					mu.Unlock()
				case errors.Is(err, ErrOverloaded):
					if calls.Load() != 0 {
						errs <- errors.New("shed request's done ran")
						return
					}
					mu.Lock()
					counts["shed"]++
					mu.Unlock()
				default:
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	pool.Close()

	mu.Lock()
	defer mu.Unlock()
	served := counts["do"] + counts["submitted"]
	total := served + counts["shed"] + counts["deadline"]
	if total != workers*ops {
		t.Fatalf("accounted %d ops (%v), want %d", total, counts, workers*ops)
	}
	if counts["do"] != workers*ops/2 {
		t.Fatalf("Do path completed %d, want %d", counts["do"], workers*ops/2)
	}
	if counts["deadline"] == 0 {
		t.Fatal("no submission expired: the hammer lost its deadline leg")
	}
	reg := pool.Metrics()
	if depth, ok := reg.Value("queue_depth"); !ok || depth != 0 {
		t.Fatalf("queue_depth after drain = %v", depth)
	}
	value := func(name string) int {
		v, _ := reg.Value(name)
		return int(v)
	}
	if value("scans_total") != served || value("shed_total") != counts["shed"] ||
		value("deadline_exceeded_total") != counts["deadline"] || value("scan_errors_total") != 0 {
		t.Fatalf("scans_total=%d shed_total=%d deadline_exceeded_total=%d scan_errors_total=%d, callers saw %v",
			value("scans_total"), value("shed_total"), value("deadline_exceeded_total"), value("scan_errors_total"), counts)
	}
	if hits, misses := value("cache_hits_total"), value("cache_misses_total"); hits+misses != served {
		t.Fatalf("cache_hits_total %d + cache_misses_total %d != served %d", hits, misses, served)
	}
}

// TestPoolShedIsDeterministic: with the lone worker pinned inside a
// delivery callback and the one-slot queue filled, the next submission
// MUST shed — no timing involved.
func TestPoolShedIsDeterministic(t *testing.T) {
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(PoolConfig{Detector: det, Workers: 1, QueueDepth: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	p := []byte("Plain English text, long enough to scan without fuss.")

	// Pin the worker: its done callback blocks until released.
	workerIn := make(chan struct{})
	release := make(chan struct{})
	pinnedDone := make(chan struct{})
	if err := pool.runOrSubmit(p, time.Time{}, nil, false, false, func(core.Verdict, bool, error) {
		close(workerIn)
		<-release
		close(pinnedDone)
	}); err != nil {
		t.Fatal(err)
	}
	<-workerIn // the worker is now inside the callback, queue empty

	// Fill the single queue slot.
	queuedDone := make(chan struct{})
	if err := pool.runOrSubmit(p, time.Time{}, nil, false, false, func(core.Verdict, bool, error) { close(queuedDone) }); err != nil {
		t.Fatal(err)
	}
	// Worker pinned + queue full: the third submission must shed, every
	// time.
	err = pool.runOrSubmit(p, time.Time{}, nil, false, false, func(core.Verdict, bool, error) {
		t.Error("shed job must never run")
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit into full queue = %v, want ErrOverloaded", err)
	}
	if v, ok := pool.Metrics().Value("shed_total"); !ok || v != 1 {
		t.Fatalf("shed_total = %v, want 1", v)
	}

	close(release)
	<-pinnedDone
	<-queuedDone // queued job still served after the release
}
