// Package tracing is the per-scan observability layer of the serving
// stack: one Trace per request, divided into a fixed set of timed
// stages (queue wait, cache lookup, threshold derivation, decode, DP),
// recorded into lock-free rings by a flight Recorder and served as
// JSON from the /debug endpoints. The aggregate counters and latency
// histograms in package telemetry say *that* scans are slow; a trace
// says *where* a particular scan spent its time.
//
// The package is designed for the scan hot path: starting and stopping
// a stage is two monotonic clock reads and two array stores, nil
// receivers disable every operation (an untraced scan pays one branch
// per span), and recording a completed trace is a single atomic
// pointer publish into a sharded ring. Span start/stop carry the
// //mel:hotpath directive, so mellint holds them to the same
// allocation discipline as the engine itself.
package tracing

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync/atomic"
	"time"
)

// Stage identifies one timed phase of a scan's lifecycle. The set is
// fixed and ordered the way a request flows through the pipeline.
type Stage uint8

// Pipeline stages.
const (
	// StageQueueWait spans a cache miss's wait in the scan pool's
	// queue, from enqueue to worker pickup. Cache hits are answered at
	// submission and never open it.
	StageQueueWait Stage = iota
	// StageCache spans the content-hash computation and verdict-cache
	// lookup, done at submission.
	StageCache
	// StageThreshold spans model-parameter estimation and τ derivation
	// (the text-only classification rides in this window too).
	StageThreshold
	// StageDecode spans the engine's separate decode pass — every
	// offset reduced to its packed record — which only all-paths mode
	// runs. The sequential modes fuse decode into the DP pass and
	// leave this stage unset.
	StageDecode
	// StageDP spans the engine's dynamic program — the
	// pseudo-execution itself. On the fused path (the sequential
	// modes) it spans decode and DP together.
	StageDP
	// StageTriage spans the content pipeline's entropy/byte-class
	// pre-filter. Appended after the original five so existing wire
	// stage ids stay stable.
	StageTriage
	// StageContentDecode spans the content pipeline's layer peeling
	// (distinct from StageDecode, the engine's instruction decode).
	StageContentDecode
	// NumStages is the number of defined stages.
	NumStages = iota
)

// stageNames are the wire/JSON names, indexed by Stage.
var stageNames = [NumStages]string{
	"queue_wait", "cache", "threshold", "decode", "dp", "triage", "content_decode",
}

// String returns the canonical stage name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// IDLen is the trace id length in bytes — fixed at 16 so the id fits
// one wire field and renders as 32 hex digits.
const IDLen = 16

// TraceID identifies one trace across process boundaries: the client
// that opened the trace, the daemon that served it, and the flight
// recorder entry all share it.
type TraceID [IDLen]byte

// idHi is a per-process random prefix; idCtr hands out the unique low
// half. Together they make NewID collision-free within a process and
// collision-unlikely across processes without per-call entropy reads.
var (
	idHi  uint64
	idCtr atomic.Uint64
)

func init() {
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		idHi = binary.BigEndian.Uint64(seed[:])
	} else {
		idHi = uint64(time.Now().UnixNano())
	}
}

// NewID returns a fresh trace id: the process prefix plus a counter.
//
//mel:hotpath
func NewID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], idHi)
	binary.BigEndian.PutUint64(id[8:], idCtr.Add(1))
	return id
}

// IsZero reports the all-zero (absent) id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the id as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// ParseID parses the hex form String produces.
func ParseID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 2*IDLen {
		return id, errors.New("tracing: trace id must be 32 hex digits")
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return id, err
	}
	return id, nil
}

// Trace is the record of one scan request. All stage bookkeeping is
// fixed-size — no slices, no maps — so a Trace is one allocation, and
// a value copy of a completed trace is a consistent snapshot.
//
// A nil *Trace is valid everywhere: every method no-ops, which is how
// untraced scans share the instrumented code path at the cost of one
// nil check per span.
type Trace struct {
	// ID is the cross-process identity of this request.
	ID TraceID
	// Start anchors the trace; stage offsets are monotonic nanoseconds
	// since Start (time.Since reads the monotonic clock).
	Start time.Time
	// Bytes is the scanned payload length.
	Bytes int

	// Verdict summary: the served verdict's fields, set once by the
	// scan pool just before Finish (the detector and the content
	// pipeline only time stages), so a recorded trace agrees with the
	// response and the journal event.
	MEL       int
	Threshold float64
	Malicious bool
	Cached    bool
	// ViewIndex is the decoded view the verdict came from when the scan
	// ran through the content pipeline: 0 for the raw payload, i>0 for
	// the i-th decoded view (-1 when the pipeline was not involved).
	ViewIndex int
	// DecodeChain names the layers peeled to reach that view, outermost
	// first ("gzip>base64"), empty for the raw payload.
	DecodeChain string
	// TriageScore is the content pipeline's suspicion score for the raw
	// payload in [0,1] (0 when the pipeline was not involved).
	TriageScore float64
	// TriageCleared marks scans the triage stage cleared without
	// invoking the MEL pass.
	TriageCleared bool
	// Err holds the failure, empty on success.
	Err string

	stageStart [NumStages]int64 // ns offset from Start when the stage opened
	stageDur   [NumStages]int64 // ns, -1 while unset
	total      int64            // ns, set by Finish (or SetTotal)
}

// New opens a trace for a payload of n bytes, anchored now. A zero id
// is replaced with a fresh one.
//
//mel:hotpath
func New(id TraceID, n int) *Trace {
	if id.IsZero() {
		id = NewID()
	}
	t := &Trace{ID: id, Start: time.Now(), Bytes: n, ViewIndex: -1}
	for i := range t.stageDur {
		t.stageDur[i] = -1
	}
	return t
}

// StageStart opens stage s at the current monotonic time.
//
//mel:hotpath
func (t *Trace) StageStart(s Stage) {
	if t == nil {
		return
	}
	t.stageStart[s] = int64(time.Since(t.Start))
}

// StageEnd closes stage s, recording the elapsed monotonic time since
// the matching StageStart.
//
//mel:hotpath
func (t *Trace) StageEnd(s Stage) {
	if t == nil {
		return
	}
	t.stageDur[s] = int64(time.Since(t.Start)) - t.stageStart[s]
}

// StageDur returns the recorded duration of stage s, or -1 if the
// stage never closed (and 0 for a nil trace).
func (t *Trace) StageDur(s Stage) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.stageDur[s])
}

// SetStageDur overrides a stage duration — the rehydration path for
// traces reconstructed from wire timings on the client side.
func (t *Trace) SetStageDur(s Stage, d time.Duration) {
	if t == nil {
		return
	}
	t.stageStart[s] = 0
	t.stageDur[s] = int64(d)
}

// SetVerdict records the scan outcome on the trace.
//
//mel:hotpath
func (t *Trace) SetVerdict(mel int, threshold float64, malicious bool) {
	if t == nil {
		return
	}
	t.MEL = mel
	t.Threshold = threshold
	t.Malicious = malicious
}

// SetContent records the content-pipeline outcome: which decoded view
// the verdict came from, the decode chain that produced it, the triage
// suspicion score, and whether triage cleared the scan outright. It
// runs once per served content verdict, and the chain string is built
// by the caller.
func (t *Trace) SetContent(viewIndex int, chain string, score float64, cleared bool) {
	if t == nil {
		return
	}
	t.ViewIndex = viewIndex
	t.DecodeChain = chain
	t.TriageScore = score
	t.TriageCleared = cleared
}

// SetCached marks the verdict as served from the content-hash cache.
//
//mel:hotpath
func (t *Trace) SetCached(cached bool) {
	if t == nil {
		return
	}
	t.Cached = cached
}

// SetError records a scan failure.
func (t *Trace) SetError(msg string) {
	if t == nil {
		return
	}
	t.Err = msg
}

// Finish stamps the total duration. A trace must be finished before it
// is handed to a Recorder; after Finish the trace must not be mutated
// (readers hold the published pointer).
//
//mel:hotpath
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.total = int64(time.Since(t.Start))
}

// SetTotal overrides the total duration (wire rehydration).
func (t *Trace) SetTotal(d time.Duration) {
	if t == nil {
		return
	}
	t.total = int64(d)
}

// Total returns the finished duration (0 before Finish or for nil).
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.total)
}
