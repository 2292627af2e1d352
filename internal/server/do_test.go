package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry/events"
	"repro/internal/telemetry/tracing"
)

// TestDoJournalsEveryOutcome: Do is admitted like a connection's
// request, so each of its outcomes — a miss, a hit, an expired
// context, a context cancelled or timed out while Do waits on a full
// queue, and a closed pool — journals exactly one event with its cause,
// and a failed request's trace is recorded with its error.
func TestDoJournalsEveryOutcome(t *testing.T) {
	j := events.New(events.Config{Capacity: 64, Shards: 1, SampleEvery: 1})
	rec := tracing.NewRecorder(tracing.RecorderConfig{})
	pool, err := NewPool(PoolConfig{
		Detector: newTestDetector(t), Workers: 1, QueueDepth: 1, CacheSize: 8,
		Events: j, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ps := hitPathPayloads(t, 53, 6)

	// expect runs one Do and checks that it journaled exactly one event
	// with cause want; a failure must also leave its trace recorded.
	expect := func(name string, want events.Cause, do func() error) {
		t.Helper()
		before := len(j.Snapshot(0))
		recBefore := rec.Recorded()
		err := do()
		evs := j.Snapshot(0)
		if got := len(evs) - before; got != 1 {
			t.Fatalf("%s: %d events journaled, want 1 (err %v)", name, got, err)
		}
		if evs[0].Cause != want {
			t.Fatalf("%s: journaled cause %s, want %s (err %v)", name, evs[0].Cause, want, err)
		}
		if want != events.CauseOK {
			if rec.Recorded() != recBefore+1 || rec.Recent(1)[0].Err == "" {
				t.Fatalf("%s: failed request's trace not recorded with its error", name)
			}
		}
	}

	expect("miss", events.CauseOK, func() error {
		_, cached, err := pool.Do(context.Background(), ps[0])
		if err == nil && cached {
			t.Fatal("miss: first scan reported cached")
		}
		return err
	})
	expect("hit", events.CauseOK, func() error {
		_, cached, err := pool.Do(context.Background(), ps[0])
		if err == nil && !cached {
			t.Fatal("hit: repeated scan not served from the cache")
		}
		return err
	})
	deadlines := pool.m.deadline.Value()
	expect("expired ctx", events.CauseDeadline, func() error {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		_, _, err := pool.Do(ctx, ps[1])
		if err == nil {
			t.Fatal("expired ctx: Do succeeded")
		}
		return err
	})

	// Pin the worker and fill the one-deep queue, so the next Do waits.
	release, pinnedDone := pinWorker(t, pool, ps[2])
	var releaseOnce sync.Once
	unpin := func() { releaseOnce.Do(func() { close(release) }) }
	defer unpin() // a failed check must not leave Close waiting on the pinned worker
	fillerDone := make(chan struct{})
	if err := pool.runOrSubmit(ps[3], time.Time{}, nil, false, false, func(core.Verdict, bool, error) { close(fillerDone) }); err != nil {
		t.Fatal(err)
	}
	// doQueued runs Do on payload and, once it waits on the full queue
	// (queue depth counts the filler and the waiting Do), calls then.
	doQueued := func(ctx context.Context, payload []byte, then func()) error {
		errc := make(chan error, 1)
		go func() {
			_, _, err := pool.Do(ctx, payload)
			errc <- err
		}()
		for pool.m.depth.Value() < 2 {
			select {
			case err := <-errc:
				t.Fatalf("Do returned %v before it waited on the queue", err)
			default:
				time.Sleep(time.Millisecond)
			}
		}
		then()
		return <-errc
	}
	expect("cancelled while queued", events.CauseOther, func() error {
		ctx, cancel := context.WithCancel(context.Background())
		err := doQueued(ctx, ps[4], cancel)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled while queued: err = %v, want context.Canceled", err)
		}
		return err
	})
	expect("timed out while queued", events.CauseDeadline, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		err := doQueued(ctx, ps[5], func() {})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("timed out while queued: err = %v, want context.DeadlineExceeded", err)
		}
		return err
	})
	if got := pool.m.deadline.Value() - deadlines; got != 2 {
		t.Fatalf("deadline_exceeded_total rose by %d, want 2", got)
	}
	unpin()
	<-pinnedDone
	<-fillerDone

	pool.Close()
	expect("closed pool", events.CauseShutdown, func() error {
		_, _, err := pool.Do(context.Background(), ps[0])
		if !errors.Is(err, ErrShuttingDown) {
			t.Fatalf("closed pool: err = %v, want ErrShuttingDown", err)
		}
		return err
	})
}
