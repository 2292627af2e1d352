package server

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
	"repro/internal/telemetry/tracing"
)

// Pool defaults.
const (
	// DefaultCacheSize is the verdict-cache capacity when the
	// configuration leaves it zero.
	DefaultCacheSize = 4096
	// defaultQueueFactor sizes the job queue as a multiple of the worker
	// count when unset: enough to absorb bursts, small enough that
	// latency under sustained overload stays bounded and shedding kicks
	// in quickly.
	defaultQueueFactor = 4
)

// PoolConfig configures a scan worker pool.
type PoolConfig struct {
	// Detector performs the scans; required, and must not be
	// recalibrated while the pool runs (the verdict cache assumes a
	// fixed calibration).
	Detector *core.Detector
	// Workers is the number of scan goroutines, and the number of scans
	// that may run at once, connection readers' inline scans included;
	// <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds the jobs waiting for a worker; <= 0 selects
	// defaultQueueFactor * Workers. When the queue is full, a
	// connection's request is shed with ErrOverloaded instead of
	// blocking; Do waits for room.
	QueueDepth int
	// CacheSize is the verdict LRU capacity: 0 selects
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// Metrics receives the pool's counters and histograms; nil creates
	// a private registry (exposed via Metrics()).
	Metrics *telemetry.Registry
	// Recorder, when set, turns on per-scan tracing: every submission
	// gets a Trace (unless a traced request supplied its own),
	// queue wait / cache / threshold / decode / DP become timed stages,
	// completed traces land in the recorder, and the latency histogram
	// gains trace-id exemplars.
	Recorder *tracing.Recorder
	// OnVerdict, when set, receives every successfully served verdict
	// (cache hits included) after its trace is recorded — the hook the
	// model-drift watcher observes MELs through. Called from worker
	// goroutines and from submitting goroutines (hits, inline misses);
	// must be cheap and concurrency-safe.
	OnVerdict func(core.Verdict)
	// Content, when set, enables the content scan path: content scans
	// run through this triage → decode → MEL pipeline instead of the
	// bare detector, always at the pipeline's full decode depth. The
	// pipeline should be built around the same detector (its verdict
	// cache assumptions carry over).
	Content *content.Pipeline
	// Events, when set, journals one wide event per submission outcome —
	// served verdicts, sheds, deadline expiries, scan failures — into
	// the lock-free journal. A nil journal costs one branch.
	Events *events.Journal
}

// job is one scan request. content selects the pipeline path; key is
// the verdict-cache key, computed once at submission (zero when the
// pool has no cache).
type job struct {
	payload  []byte
	enqueued time.Time
	deadline time.Time
	tr       *tracing.Trace
	content  bool
	key      cacheKey
	done     func(v core.Verdict, cached bool, err error)
}

// poolMetrics are the pool's registered instruments — the canonical
// serving metric names.
type poolMetrics struct {
	scans     *telemetry.Counter
	errs      *telemetry.Counter
	malicious *telemetry.Counter
	benign    *telemetry.Counter
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	shed      *telemetry.Counter
	deadline  *telemetry.Counter
	depth     *telemetry.Gauge
	latency   *telemetry.Histogram
	bytes     *telemetry.Counter
}

func newPoolMetrics(reg *telemetry.Registry) poolMetrics {
	return poolMetrics{
		scans:     reg.Counter("scans_total", "verdicts served (cache hits included)"),
		errs:      reg.Counter("scan_errors_total", "scans that failed in the detector"),
		malicious: reg.Counter("verdicts_malicious_total", "verdicts that flagged the payload"),
		benign:    reg.Counter("verdicts_benign_total", "verdicts that passed the payload"),
		hits:      reg.Counter("cache_hits_total", "verdicts served from the content-hash cache"),
		misses:    reg.Counter("cache_misses_total", "cache lookups that fell through to a scan"),
		shed:      reg.Counter("shed_total", "requests shed because the queue was full"),
		deadline:  reg.Counter("deadline_exceeded_total", "requests that expired before a worker reached them"),
		depth:     reg.Gauge("queue_depth", "jobs waiting for a worker"),
		latency:   reg.Histogram("scan_latency_seconds", "request latency, queue wait included", nil),
		bytes:     reg.Counter("bytes_scanned_total", "payload bytes across served verdicts"),
	}
}

// Pool is a bounded scan worker pool with an optional verdict cache.
// It is the shared execution engine behind the TCP server and the
// proxy's pooled mode. Every request — a connection's (runOrSubmit) or
// an in-process caller's (Do) — passes one admission path (admit),
// which refuses it after Close with ErrShuttingDown, fails an expired
// deadline, and consults the cache: a hit is answered on the submitting
// goroutine and never queues or sheds. A miss is queued (enqueue); when
// the queue is full a connection's request is shed with ErrOverloaded
// and Do waits for room until its context ends. A connection reader may
// instead scan a miss itself when the pool is idle. Every outcome is
// journaled once. Close drains queued work before returning.
type Pool struct {
	det   *core.Detector
	pipe  *content.Pipeline
	cache *verdictCache
	jobs  chan job
	// slots holds one token per scan running, on a worker or on a
	// connection reader, so at most Workers scans run at once.
	slots     chan struct{}
	reg       *telemetry.Registry
	m         poolMetrics
	rec       *tracing.Recorder
	journal   *events.Journal
	onVerdict func(core.Verdict)

	// mu serializes enqueue's channel send against Close's channel
	// close: senders hold the read lock, so Close (write lock) cannot
	// close the channel mid-send.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

// NewPool validates the configuration and starts the workers.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Detector == nil {
		return nil, errors.New("server: nil detector")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueFactor * cfg.Workers
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	p := &Pool{
		det:       cfg.Detector,
		pipe:      cfg.Content,
		jobs:      make(chan job, cfg.QueueDepth),
		slots:     make(chan struct{}, cfg.Workers),
		reg:       reg,
		m:         newPoolMetrics(reg),
		rec:       cfg.Recorder,
		journal:   cfg.Events,
		onVerdict: cfg.OnVerdict,
	}
	switch {
	case cfg.CacheSize == 0:
		p.cache = newVerdictCache(DefaultCacheSize)
	case cfg.CacheSize > 0:
		p.cache = newVerdictCache(cfg.CacheSize)
	}
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p, nil
}

// Metrics returns the registry the pool reports into.
func (p *Pool) Metrics() *telemetry.Registry { return p.reg }

// runOrSubmit is the connection reader's entry point. A request that
// can be answered at once — a refusal, a verdict-cache hit, or a
// deadline that has already passed — completes on the calling
// goroutine. When idle is true — the reader has no further request
// buffered — and the pool has a free scan slot and nobody queued, a
// miss is scanned on the calling goroutine too; done then runs before
// runOrSubmit returns, and the slot is released before done runs, so a
// done that blocks on a stalled peer holds none. Any other miss is
// queued for a worker, and done runs later on the worker's goroutine.
// On nil error done is called exactly once, with the verdict or a typed
// error. A full queue sheds the request with ErrOverloaded and a closed
// pool rejects it with ErrShuttingDown; done is then never called. A
// non-zero deadline expires queued requests with ErrDeadlineExceeded.
// A nil trace gets the pool's automatic one. The pool does not read
// payload after done returns, on any path, so done may hand payload's
// memory on for reuse.
func (p *Pool) runOrSubmit(payload []byte, deadline time.Time, tr *tracing.Trace, isContent, idle bool, done func(v core.Verdict, cached bool, err error)) error {
	if tr == nil {
		tr = p.autoTrace(len(payload))
	}
	j := job{payload: payload, enqueued: time.Now(), deadline: deadline, tr: tr, content: isContent, done: done}
	if answered, err := p.admit(&j); answered || err != nil {
		return err
	}
	if idle && len(p.jobs) == 0 {
		select {
		case p.slots <- struct{}{}:
			// Queue wait is timed, near zero, so an inline miss's trace
			// has the same stages as a queued one's.
			tr.StageStart(tracing.StageQueueWait)
			tr.StageEnd(tracing.StageQueueWait)
			v, err := p.scan(&j)
			<-p.slots
			j.done(v, false, err)
			return nil
		default:
		}
	}
	return p.enqueue(nil, &j)
}

// admit is the one admission path, shared by runOrSubmit and Do. It
// refuses j — content scans on a pool without a pipeline, and anything
// once the pool is closed, cached payloads included — or answers it on
// the calling goroutine when it can, for an expired deadline or a cache
// hit, and reports whether it did (done has then run).
//
//mel:hotpath
func (p *Pool) admit(j *job) (bool, error) {
	if j.content && p.pipe == nil {
		return false, ErrContentDisabled
	}
	if p.isClosed() {
		p.fail(j, ErrShuttingDown, events.CauseShutdown)
		return false, ErrShuttingDown
	}
	if p.expired(j, j.enqueued) {
		j.done(core.Verdict{}, false, ErrDeadlineExceeded)
		return true, nil
	}
	if v, ok := p.lookup(j); ok {
		j.done(v, true, nil)
		return true, nil
	}
	return false, nil
}

// enqueue queues j for a worker. With a nil ctx a full queue sheds j
// with ErrOverloaded; otherwise enqueue waits for room until ctx ends,
// and fails j with ctx's error. The close flag is checked again under
// the lock that orders the enqueue before Close's channel close.
//
//mel:hotpath
func (p *Pool) enqueue(ctx context.Context, j *job) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		p.fail(j, ErrShuttingDown, events.CauseShutdown)
		return ErrShuttingDown
	}
	p.m.depth.Inc()
	j.tr.StageStart(tracing.StageQueueWait)
	if ctx == nil {
		select {
		case p.jobs <- *j:
			return nil
		default:
			p.m.depth.Dec()
			p.m.shed.Inc()
			p.fail(j, ErrOverloaded, events.CauseShed)
			return ErrOverloaded
		}
	}
	select {
	case p.jobs <- *j:
		return nil
	case <-ctx.Done():
		p.m.depth.Dec()
		err := ctx.Err()
		cause := events.CauseOther
		if errors.Is(err, context.DeadlineExceeded) {
			p.m.deadline.Inc()
			cause = events.CauseDeadline
		}
		p.fail(j, err, cause)
		return err
	}
}

// isClosed reports whether Close has begun.
//
//mel:hotpath
func (p *Pool) isClosed() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.closed
}

// expired reports whether j's deadline is before now, and if so counts,
// traces and journals the expiry; the caller fails j with
// ErrDeadlineExceeded.
//
//mel:hotpath
func (p *Pool) expired(j *job, now time.Time) bool {
	if j.deadline.IsZero() || !now.After(j.deadline) {
		return false
	}
	p.m.deadline.Inc()
	p.fail(j, ErrDeadlineExceeded, events.CauseDeadline)
	return true
}

// lookup hashes j's payload into j.key and probes the verdict cache,
// timing both as the cache stage. On a hit the verdict is served
// (finish) and returned for the caller to deliver; a miss is not
// counted here (cache_misses_total counts the scans that run).
//
//mel:hotpath
func (p *Pool) lookup(j *job) (core.Verdict, bool) {
	if p.cache == nil {
		return core.Verdict{}, false
	}
	j.tr.StageStart(tracing.StageCache)
	j.key = cacheKey{sum: sha256.Sum256(j.payload), content: j.content}
	v, ok := p.cache.get(j.key)
	j.tr.StageEnd(tracing.StageCache)
	if !ok {
		return core.Verdict{}, false
	}
	return p.finish(j, v, true), true
}

// jobEvent builds the wide event for a job that was served, failed or
// refused, preferring the trace's bookkeeping when tracing is on.
//
//mel:hotpath
func (p *Pool) jobEvent(j *job, v core.Verdict, cached bool, cause events.Cause) events.Event {
	e := events.Event{
		StartUnixNs: j.enqueued.UnixNano(),
		Total:       time.Since(j.enqueued),
		Bytes:       len(j.payload),
		Content:     j.content,
		ViewIndex:   -1,
		Cause:       cause,
	}
	for i := range e.Stages {
		e.Stages[i] = -1
	}
	if tr := j.tr; tr != nil {
		e.TraceID = tr.ID
		e.StartUnixNs = tr.Start.UnixNano()
		if tr.Total() > 0 {
			e.Total = tr.Total()
		}
		for s := tracing.Stage(0); int(s) < tracing.NumStages; s++ {
			e.Stages[s] = tr.StageDur(s)
		}
	}
	if cause == events.CauseOK {
		e.MEL = v.MEL
		e.Threshold = v.Threshold
		e.Malicious = v.Malicious
		e.Cached = cached
		if j.content {
			e.ViewIndex = v.ViewIndex
			e.DecodeChain = v.DecodeChain
			e.TriageScore = v.TriageScore
			e.TriageCleared = v.TriageCleared
		}
	}
	return e
}

// recordJobEvent journals a job's outcome; nil journal no-ops. The
// event is built on the stack and handed to the journal's
// allocation-free record path.
//
//mel:hotpath
func (p *Pool) recordJobEvent(j *job, v core.Verdict, cached bool, cause events.Cause) {
	if p.journal == nil {
		return
	}
	e := p.jobEvent(j, v, cached, cause)
	p.journal.Record(&e)
}

// autoTrace opens a fresh trace when the pool records traces, nil
// otherwise.
//
//mel:hotpath
func (p *Pool) autoTrace(n int) *tracing.Trace {
	if p.rec == nil {
		return nil
	}
	return tracing.New(tracing.TraceID{}, n)
}

// Do runs one scan through the pool and waits for the result. It is
// admitted like a connection's request, but waits for a queue slot
// (honouring ctx) instead of shedding, which is the right behaviour for
// in-process callers like the proxy that own their own flow control. A
// cache hit returns at once without queueing. The bool reports whether
// the verdict came from the cache.
func (p *Pool) Do(ctx context.Context, payload []byte) (core.Verdict, bool, error) {
	return p.do(ctx, payload, false)
}

// DoContent is Do routed through the content pipeline; it fails with
// ErrContentDisabled when the pool was built without one.
func (p *Pool) DoContent(ctx context.Context, payload []byte) (core.Verdict, bool, error) {
	return p.do(ctx, payload, true)
}

// do is the blocking path shared by Do and DoContent.
func (p *Pool) do(ctx context.Context, payload []byte, isContent bool) (core.Verdict, bool, error) {
	type result struct {
		v      core.Verdict
		cached bool
		err    error
	}
	ch := make(chan result, 1)
	j := job{
		payload:  payload,
		enqueued: time.Now(),
		tr:       p.autoTrace(len(payload)),
		content:  isContent,
		done:     func(v core.Verdict, cached bool, err error) { ch <- result{v, cached, err} },
	}
	if t, ok := ctx.Deadline(); ok {
		j.deadline = t
	}
	answered, err := p.admit(&j)
	if err == nil && !answered {
		err = p.enqueue(ctx, &j)
	}
	if err != nil {
		return core.Verdict{}, false, err
	}
	r := <-ch
	return r.v, r.cached, r.err
}

// ScanFunc adapts the pool to the detector's scan signature, for
// core.NewStreamScannerFunc and the proxy's pooled mode.
func (p *Pool) ScanFunc() func([]byte) (core.Verdict, error) {
	return func(payload []byte) (core.Verdict, error) {
		v, _, err := p.Do(context.Background(), payload)
		return v, err
	}
}

// ScanContentFunc is ScanFunc through the content pipeline — the
// proxy's pooled content mode. Nil when the pool has no pipeline.
func (p *Pool) ScanContentFunc() func([]byte) (core.Verdict, error) {
	if p.pipe == nil {
		return nil
	}
	return func(payload []byte) (core.Verdict, error) {
		v, _, err := p.DoContent(context.Background(), payload)
		return v, err
	}
}

// Close stops accepting work, drains the queue, and waits for the
// workers to exit. Safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}

// worker drains the job queue. It holds a scan slot while it serves a
// job and releases it before done runs.
func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		p.m.depth.Dec()
		p.slots <- struct{}{}
		v, cached, err := p.serve(&j)
		<-p.slots
		j.done(v, cached, err)
	}
}

// serve executes one queued miss: deadline check, cache re-probe, then
// scan. The re-probe reuses the key hashed at submission, so identical
// payloads queued together are scanned once. The caller delivers the
// outcome to done.
func (p *Pool) serve(j *job) (core.Verdict, bool, error) {
	j.tr.StageEnd(tracing.StageQueueWait)
	if p.expired(j, time.Now()) {
		return core.Verdict{}, false, ErrDeadlineExceeded
	}
	if p.cache != nil {
		if v, ok := p.cache.get(j.key); ok {
			return p.finish(j, v, true), true, nil
		}
	}
	v, err := p.scan(j)
	return v, false, err
}

// scan runs one miss through the detector or the content pipeline,
// fills the cache and records the outcome. Each phase is timed onto the
// job's trace when tracing is on.
func (p *Pool) scan(j *job) (core.Verdict, error) {
	tr := j.tr
	if p.cache != nil {
		p.m.misses.Inc()
	}
	var v core.Verdict
	var err error
	if j.content {
		v, err = p.pipe.ScanTraced(j.payload, tr)
	} else {
		v, err = p.det.ScanTraced(j.payload, tr)
	}
	if err != nil {
		p.m.errs.Inc()
		wrapped := fmt.Errorf("%w: %v", ErrScanFailed, err)
		p.fail(j, wrapped, events.CauseScanError)
		return core.Verdict{}, wrapped
	}
	if p.cache != nil {
		p.cache.put(j.key, v)
	}
	return p.finish(j, v, false), nil
}

// fail records j's failure with err — a refusal, an expiry, or a scan
// error: its trace is completed and recorded, and the failure journaled
// under cause, so every journaled trace id resolves in the recorder.
func (p *Pool) fail(j *job, err error, cause events.Cause) {
	if tr := j.tr; tr != nil {
		tr.SetError(err.Error())
		tr.Finish()
		p.rec.Record(tr)
	}
	p.recordJobEvent(j, core.Verdict{}, false, cause)
}

// finish serves v, a scan's verdict or a cache hit's, and returns it
// with the trace id set for the caller to deliver to done. It is the
// one place a verdict is joined to its trace: the served verdict's
// fields are set on the trace, which is then finished and recorded (and
// its id attached to the latency histogram as an exemplar) before done
// runs, so a client that immediately queries /debug/traces sees its own
// request, and the trace, the journal event and the response agree.
//
//mel:hotpath
func (p *Pool) finish(j *job, v core.Verdict, cached bool) core.Verdict {
	if cached {
		p.m.hits.Inc()
	}
	p.m.scans.Inc()
	p.m.bytes.Add(uint64(len(j.payload)))
	if v.Malicious {
		p.m.malicious.Inc()
	} else {
		p.m.benign.Inc()
	}
	lat := time.Since(j.enqueued).Seconds()
	if tr := j.tr; tr != nil {
		tr.SetVerdict(v.MEL, v.Threshold, v.Malicious)
		tr.SetCached(cached)
		if j.content {
			tr.SetContent(v.ViewIndex, v.DecodeChain, v.TriageScore, v.TriageCleared)
		}
		v.TraceID = tr.ID
		tr.Finish()
		p.rec.Record(tr)
		p.m.latency.ObserveExemplar(lat, tr.ID)
	} else {
		p.m.latency.Observe(lat)
	}
	if p.onVerdict != nil {
		p.onVerdict(v)
	}
	p.recordJobEvent(j, v, cached, events.CauseOK)
	return v
}

// Queue reports the job queue's current depth and capacity — the
// overload signal behind the /debug/health endpoint.
func (p *Pool) Queue() (depth, capacity int) {
	return len(p.jobs), cap(p.jobs)
}

// InstrumentDetector wires a detector's observer hook into reg under
// the detector_* names, separating raw pseudo-execution cost
// (detector_scan_seconds) from the pool's end-to-end request latency
// (scan_latency_seconds, queue wait included). ScanBatch and stream
// scanners over the same detector report through the same hook.
func InstrumentDetector(d *core.Detector, reg *telemetry.Registry) {
	scans := reg.Counter("detector_scans_total", "raw detector scans (cache misses and direct calls)")
	errs := reg.Counter("detector_errors_total", "raw detector scan failures")
	bytes := reg.Counter("detector_bytes_total", "bytes pseudo-executed")
	lat := reg.Histogram("detector_scan_seconds", "pseudo-execution latency", nil)
	d.SetObserver(func(s core.ScanStats) {
		scans.Inc()
		bytes.Add(uint64(s.Bytes))
		lat.Observe(s.Elapsed.Seconds())
		if s.Err != nil {
			errs.Inc()
		}
	})
}
