// Tests for the pool's submission-time cache path: hits complete on
// the submitting goroutine, never queue and never shed, and every
// request is counted exactly once. The content verdict the pool serves
// does not depend on its load, and its trace and journal event repeat
// it. Coordination is by channels and the worker-pinning pattern of
// TestPoolShedIsDeterministic, never sleeps.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/encoder"
	"repro/internal/shellcode"
	"repro/internal/telemetry/events"
	"repro/internal/telemetry/tracing"
)

// hitPathPayloads returns n distinct corpus cases.
func hitPathPayloads(t *testing.T, seed uint64, n int) [][]byte {
	t.Helper()
	cases, err := corpus.Dataset(seed, n, 1024)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i, c := range cases {
		out[i] = c.Data
	}
	return out
}

// scanOnce submits p and waits for its verdict.
func scanOnce(t *testing.T, pool *Pool, p []byte) core.Verdict {
	t.Helper()
	type res struct {
		v   core.Verdict
		err error
	}
	ch := make(chan res, 1)
	if err := pool.runOrSubmit(p, time.Time{}, nil, false, false, func(v core.Verdict, _ bool, err error) { ch <- res{v, err} }); err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.v
}

// pinWorker submits p and returns once the lone worker sits inside its
// done callback; closing the returned release channel lets it go, and
// the returned done channel closes after that.
func pinWorker(t *testing.T, pool *Pool, p []byte) (release, done chan struct{}) {
	t.Helper()
	in := make(chan struct{})
	release = make(chan struct{})
	done = make(chan struct{})
	if err := pool.runOrSubmit(p, time.Time{}, nil, false, false, func(core.Verdict, bool, error) {
		close(in)
		<-release
		close(done)
	}); err != nil {
		t.Fatal(err)
	}
	<-in
	return release, done
}

func newTestDetector(t *testing.T) *core.Detector {
	t.Helper()
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestPoolHitCompletesInline: a cached payload's done runs on the
// submitting goroutine, before runOrSubmit returns. The flags are plain
// variables on purpose: had done run on a worker, the race detector
// would flag the unsynchronized read below.
func TestPoolHitCompletesInline(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: newTestDetector(t), Workers: 1, QueueDepth: 1, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	p := hitPathPayloads(t, 41, 1)[0]
	want := scanOnce(t, pool, p)

	var ran, cached bool
	var got core.Verdict
	var gotErr error
	if err := pool.runOrSubmit(p, time.Time{}, nil, false, false, func(v core.Verdict, c bool, err error) {
		ran, cached, got, gotErr = true, c, v, err
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("cache hit's done had not run when runOrSubmit returned")
	}
	if gotErr != nil || !cached || got.MEL != want.MEL || got.Threshold != want.Threshold {
		t.Fatalf("inline hit = (%+v, cached=%v, %v), want cached %+v", got, cached, gotErr, want)
	}
}

// TestPoolHitServedWhileSaturated: with the lone worker pinned and the
// queue full, a miss sheds but a hit is still answered at once —
// through runOrSubmit, with and without an explicit trace, and the blocking Do — and a hit's trace
// has a cache stage but no queue wait.
func TestPoolHitServedWhileSaturated(t *testing.T) {
	rec := tracing.NewRecorder(tracing.RecorderConfig{Recent: 16})
	pool, err := NewPool(PoolConfig{Detector: newTestDetector(t), Workers: 1, QueueDepth: 1, CacheSize: 8, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ps := hitPathPayloads(t, 43, 4)
	hot, pin, queued, shed := ps[0], ps[1], ps[2], ps[3]
	want := scanOnce(t, pool, hot)

	release, pinnedDone := pinWorker(t, pool, pin)
	queuedDone := make(chan struct{})
	if err := pool.runOrSubmit(queued, time.Time{}, nil, false, false, func(core.Verdict, bool, error) { close(queuedDone) }); err != nil {
		t.Fatal(err)
	}
	if err := pool.runOrSubmit(shed, time.Time{}, nil, false, false, func(core.Verdict, bool, error) {
		t.Error("shed job must never run")
	}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("miss into full queue = %v, want ErrOverloaded", err)
	}

	hits := 0
	if err := pool.runOrSubmit(hot, time.Time{}, nil, false, false, func(v core.Verdict, cached bool, err error) {
		if err != nil || !cached || v.MEL != want.MEL {
			t.Errorf("hit under saturation = (%+v, cached=%v, %v)", v, cached, err)
		}
		hits++
	}); err != nil {
		t.Fatalf("hit under saturation shed: %v", err)
	}
	tr := tracing.New(tracing.TraceID{}, len(hot))
	if err := pool.runOrSubmit(hot, time.Time{}, tr, false, false, func(v core.Verdict, cached bool, err error) {
		if err != nil || !cached || v.TraceID != tr.ID {
			t.Errorf("traced hit = (%+v, cached=%v, %v)", v, cached, err)
		}
		hits++
	}); err != nil {
		t.Fatalf("traced hit under saturation shed: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if v, cached, err := pool.Do(ctx, hot); err != nil || !cached || v.MEL != want.MEL {
		t.Fatalf("Do hit under saturation = (%+v, cached=%v, %v)", v, cached, err)
	}
	if hits != 2 {
		t.Fatalf("%d of 2 hits answered before runOrSubmit returned", hits)
	}
	if !tr.Cached || tr.StageDur(tracing.StageQueueWait) >= 0 || tr.StageDur(tracing.StageCache) < 0 || tr.Total() <= 0 {
		t.Fatalf("hit trace: cached=%v queue_wait=%v cache=%v total=%v, want cached, no queue wait, a cache stage, finished",
			tr.Cached, tr.StageDur(tracing.StageQueueWait), tr.StageDur(tracing.StageCache), tr.Total())
	}
	if v, _ := pool.Metrics().Value("shed_total"); v != 1 {
		t.Fatalf("shed_total = %v, want 1", v)
	}
	close(release)
	<-pinnedDone
	<-queuedDone
}

// TestPoolCountsEachRequestOnce: a fixed sequence of misses, inline
// hits, a worker-side hit on a duplicate queued miss, and an expired
// request lands in scans_total, cache_hits_total, cache_misses_total,
// deadline_exceeded_total and the journal exactly once each.
func TestPoolCountsEachRequestOnce(t *testing.T) {
	j := events.New(events.Config{Capacity: 64, Shards: 1, SampleEvery: 1})
	pool, err := NewPool(PoolConfig{Detector: newTestDetector(t), Workers: 1, QueueDepth: 4, CacheSize: 8, Events: j})
	if err != nil {
		t.Fatal(err)
	}
	ps := hitPathPayloads(t, 47, 3)
	a, pin, dup := ps[0], ps[1], ps[2]

	scanOnce(t, pool, a) // miss: scanned
	scanOnce(t, pool, a) // hit, inline

	// Two identical misses queue behind the pinned worker: the first is
	// scanned, the second finds the first's verdict when the worker
	// re-probes the cache by the key hashed at submission.
	release, pinnedDone := pinWorker(t, pool, pin) // miss: scanned
	var wg sync.WaitGroup
	var cachedDup atomic.Int32
	for i := 0; i < 2; i++ {
		wg.Add(1)
		if err := pool.runOrSubmit(dup, time.Time{}, nil, false, false, func(_ core.Verdict, cached bool, err error) {
			defer wg.Done()
			if err != nil {
				t.Error(err)
			}
			if cached {
				cachedDup.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// An already-expired request fails at once, without a queue slot.
	var expiredErr error
	if err := pool.runOrSubmit(a, time.Now().Add(-time.Second), nil, false, false, func(_ core.Verdict, _ bool, err error) { expiredErr = err }); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(expiredErr, ErrDeadlineExceeded) {
		t.Fatalf("expired request = %v, want ErrDeadlineExceeded before runOrSubmit returned", expiredErr)
	}
	close(release)
	<-pinnedDone
	wg.Wait()
	pool.Close()
	if cachedDup.Load() != 1 {
		t.Fatalf("%d of the two queued duplicates served from cache, want 1", cachedDup.Load())
	}

	reg := pool.Metrics()
	for name, want := range map[string]float64{
		"scans_total":             5, // a, a, pin, dup, dup
		"cache_hits_total":        2, // a (inline), dup (worker re-probe)
		"cache_misses_total":      3, // a, pin, dup: the scans that ran
		"deadline_exceeded_total": 1,
		"shed_total":              0,
		"queue_depth":             0,
	} {
		if got, ok := reg.Value(name); !ok || got != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, got, ok, want)
		}
	}
	var ok, cached, deadline, other int
	for _, e := range j.Snapshot(0) {
		switch {
		case e.Cause == events.CauseOK && e.Cached:
			ok++
			cached++
		case e.Cause == events.CauseOK:
			ok++
		case e.Cause == events.CauseDeadline:
			deadline++
		default:
			other++
		}
	}
	if ok != 5 || cached != 2 || deadline != 1 || other != 0 {
		t.Fatalf("journal: ok=%d (cached %d) deadline=%d other=%d, want 5 (2) 1 0", ok, cached, deadline, other)
	}
}

// TestPoolContentVerdictIgnoresLoad: a content verdict depends on the
// payload alone. A gzip-wrapped worm dequeued while the queue is nearly
// full is peeled to full depth and caught like at idle; the verdict is
// cached, so the follow-up DoContent is a hit with the same verdict,
// and the journal keeps the malicious event.
func TestPoolContentVerdictIgnoresLoad(t *testing.T) {
	det := newTestDetector(t)
	pipe, err := content.NewPipeline(det.ScanTraced, content.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const queue = 20
	// The journal keeps one benign event in a thousand: only the
	// verdict's own interest (Malicious) can keep it.
	j := events.New(events.Config{Capacity: 64, Shards: 1, SampleEvery: 1000})
	pool, err := NewPool(PoolConfig{Detector: det, Workers: 1, QueueDepth: queue, CacheSize: 64, Content: pipe, Events: j})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	worm, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	ps := hitPathPayloads(t, 47, queue)
	wrapped := content.EncodeGzip(append(append([]byte{}, ps[0][:500]...), worm.Bytes...))

	// Pin the worker, then queue the worm ahead of queue-1 fillers. The
	// worker takes the worm with the occupancy at (queue-1)/queue = 0.95.
	release, pinnedDone := pinWorker(t, pool, ps[0])
	type result struct {
		v      core.Verdict
		cached bool
		err    error
	}
	first := make(chan result, 1)
	if err := pool.runOrSubmit(wrapped, time.Time{}, nil, true, false, func(v core.Verdict, cached bool, err error) {
		first <- result{v, cached, err}
	}); err != nil {
		t.Fatal(err)
	}
	var fillers sync.WaitGroup
	for _, p := range ps[1:] {
		fillers.Add(1)
		if err := pool.runOrSubmit(p, time.Time{}, nil, false, false, func(core.Verdict, bool, error) { fillers.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	<-pinnedDone
	r := <-first
	if r.err != nil || r.cached || !r.v.Malicious || r.v.DecodeChain != "gzip" {
		t.Fatalf("worm under load = (%+v, cached=%v, %v), want a fresh malicious gzip verdict", r.v, r.cached, r.err)
	}
	fillers.Wait()
	var kept int
	for _, e := range j.Snapshot(0) {
		if e.Malicious {
			kept++
			if !e.Content || e.DecodeChain != "gzip" || e.Cause != events.CauseOK {
				t.Fatalf("worm journaled as %+v, want a malicious gzip content verdict", e)
			}
		}
	}
	if kept != 1 {
		t.Fatalf("journal kept %d malicious verdicts, want 1", kept)
	}

	v, cached, err := pool.DoContent(context.Background(), wrapped)
	if err != nil || !cached || v != r.v {
		t.Fatalf("worm at idle = (%+v, cached=%v, %v), want the cached %+v", v, cached, err, r.v)
	}
}

// servedFields are the verdict fields a trace and a journal event
// repeat from the served verdict.
type servedFields struct {
	MEL           int
	Threshold     float64
	Malicious     bool
	Cached        bool
	ViewIndex     int
	DecodeChain   string
	TriageScore   float64
	TriageCleared bool
}

// TestPoolTraceMatchesVerdict: the pool is the one layer that joins a
// verdict to its trace, so every recorded trace carries the served
// content verdict and agrees with its journal event. Benign bodies
// behind two layers are the sharp case: their decoded views are
// scanned too, and a view's MEL and τ must not stand in for the raw
// payload's.
func TestPoolTraceMatchesVerdict(t *testing.T) {
	det := newTestDetector(t)
	pipe, err := content.NewPipeline(det.ScanTraced, content.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec := tracing.NewRecorder(tracing.RecorderConfig{Recent: 256, Shards: 1})
	j := events.New(events.Config{Capacity: 256, Shards: 1, SampleEvery: 1})
	pool, err := NewPool(PoolConfig{Detector: det, Workers: 1, CacheSize: 256, Content: pipe, Recorder: rec, Events: j})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	worm, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	texts := hitPathPayloads(t, 5, 40)
	wormBody := content.EncodeGzip(append(append([]byte{}, texts[0][:500]...), worm.Bytes...))
	plain, err := corpus.Dataset(3, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	type request struct {
		name string
		body []byte
	}
	var reqs []request
	for i, text := range texts {
		reqs = append(reqs,
			request{fmt.Sprintf("base64(gzip(text %d))", i), content.EncodeBase64(content.EncodeGzip(text))},
			request{fmt.Sprintf("gzip(base64(text %d))", i), content.EncodeGzip(content.EncodeBase64(text))})
	}
	reqs = append(reqs, request{"gzip(worm)", wormBody}, request{"plain text", plain[0].Data}, request{"gzip(worm) again", wormBody})

	type servedReq struct {
		name string
		v    core.Verdict
		want servedFields
	}
	var served []servedReq
	for _, r := range reqs {
		v, cached, err := pool.DoContent(context.Background(), r.body)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if v.TraceID.IsZero() {
			t.Fatalf("%s: verdict carries no trace id", r.name)
		}
		served = append(served, servedReq{r.name, v, servedFields{v.MEL, v.Threshold, v.Malicious, cached,
			v.ViewIndex, v.DecodeChain, v.TriageScore, v.TriageCleared}})
	}
	if w := served[len(served)-3].want; !w.Malicious || w.DecodeChain != "gzip" {
		t.Fatalf("gzip(worm) = %+v, want a malicious gzip verdict", w)
	}
	if w := served[len(served)-2].want; !w.TriageCleared {
		t.Fatalf("plain text = %+v, want cleared by triage", w)
	}
	if w := served[len(served)-1].want; !w.Cached {
		t.Fatalf("gzip(worm) again = %+v, want a cache hit", w)
	}

	traces := make(map[tracing.TraceID]*tracing.Trace)
	for _, tr := range rec.Recent(0) {
		traces[tr.ID] = tr
	}
	evs := make(map[tracing.TraceID]events.Event)
	for _, e := range j.Snapshot(0) {
		evs[e.TraceID] = e
	}
	for _, s := range served {
		tr, ok := traces[s.v.TraceID]
		if !ok {
			t.Fatalf("%s: trace %s not recorded", s.name, s.v.TraceID)
		}
		got := servedFields{tr.MEL, tr.Threshold, tr.Malicious, tr.Cached,
			tr.ViewIndex, tr.DecodeChain, tr.TriageScore, tr.TriageCleared}
		if got != s.want {
			t.Errorf("%s: trace %+v, served %+v", s.name, got, s.want)
		}
		e, ok := evs[s.v.TraceID]
		if !ok {
			t.Fatalf("%s: no journal event for trace %s", s.name, s.v.TraceID)
		}
		got = servedFields{e.MEL, e.Threshold, e.Malicious, e.Cached,
			e.ViewIndex, e.DecodeChain, e.TriageScore, e.TriageCleared}
		if got != s.want {
			t.Errorf("%s: journal event %+v, served %+v", s.name, got, s.want)
		}
	}
}
