// Package events is the wide-event journal of the serving layer: one
// canonical record per scan — trace identity, stage timings, verdict,
// content decode chain, triage score, and the shed/error cause —
// retained in lock-free sharded rings, tail-aware sampled (every
// slow, error, shed, or malicious event is kept; the benign fast path
// is down-sampled), optionally spooled to a bounded JSONL sink, and
// served filterable from /debug/events.
//
// The aggregate counters in package telemetry say *that* the fleet is
// slow; a trace says *where* one scan spent its time; a wide event is
// the per-scan row the two are joined on — the record an operator
// greps when a p99 spike, a shed burst, or a model-drift alarm needs
// attribution after the fact.
//
// The record path carries the //mel:hotpath directive: an Event is
// encoded into fixed 64-bit words and published into a pre-allocated
// slot guarded by a per-slot sequence counter, so recording allocates
// nothing and every access is atomic (race-detector clean by
// construction, torn reads detected and discarded by readers).
package events

import (
	"math"
	"time"

	"repro/internal/telemetry/tracing"
)

// Cause classifies why a scan ended the way it did. CauseOK marks a
// served verdict; every other value names the failure, so the journal
// can answer "what did the shed requests look like" without parsing
// error strings.
type Cause uint8

// Event causes.
const (
	// CauseOK is a served verdict (cache hits included).
	CauseOK Cause = iota
	// CauseShed marks a request dropped because the queue was full.
	CauseShed
	// CauseDeadline marks a request that expired before a worker
	// reached it.
	CauseDeadline
	// CauseScanError marks a detector or pipeline failure.
	CauseScanError
	// CauseShutdown marks a request refused during drain.
	CauseShutdown
	// CauseOther marks any failure the caller could not classify.
	CauseOther

	numCauses
)

// causeNames are the JSON/debug names, indexed by Cause.
var causeNames = [numCauses]string{
	"ok", "shed", "deadline", "scan_error", "shutdown", "other",
}

// String returns the canonical cause name.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "unknown"
}

// ParseCause maps a canonical name back to its Cause; false when the
// name is unknown.
func ParseCause(s string) (Cause, bool) {
	for i, n := range causeNames {
		if n == s {
			return Cause(i), true
		}
	}
	return 0, false
}

// ChainBytes is the number of decode-chain bytes a journal slot
// retains; longer chains are truncated. 64 bytes covers every chain
// the decoder's depth budget can produce.
const ChainBytes = 64

// Event is one scan's canonical wide record. The struct is flat —
// fixed arrays, no slices or maps — so building one on the stack and
// handing it to Journal.Record allocates nothing.
type Event struct {
	// TraceID links the event to its flight-recorder trace; zero for
	// untraced scans.
	TraceID tracing.TraceID
	// StartUnixNs is the wall-clock start in unix nanoseconds.
	StartUnixNs int64
	// Total is the end-to-end latency (queue wait included).
	Total time.Duration
	// Bytes is the submitted payload length.
	Bytes int
	// MEL and Threshold describe the verdict (zero on failures).
	MEL       int
	Threshold float64
	// Malicious marks worm verdicts; Cached marks verdicts served from
	// the content-hash cache.
	Malicious bool
	Cached    bool
	// Content marks scans routed through the content pipeline;
	// ViewIndex is the decoded view the verdict came from (-1 when the
	// pipeline was not involved), DecodeChain the layers peeled to
	// reach it, TriageScore the pipeline's suspicion score, and
	// TriageCleared marks scans the triage gate cleared without a MEL
	// pass.
	Content       bool
	ViewIndex     int
	DecodeChain   string
	TriageScore   float64
	TriageCleared bool
	// Cause classifies the outcome; CauseOK for served verdicts.
	Cause Cause
	// Stages are the per-stage durations, indexed by tracing.Stage;
	// -1 marks stages that never ran (untraced scans carry all -1).
	Stages [tracing.NumStages]time.Duration
}

// Slot word layout: fixed header words, then one word per stage, then
// the packed decode-chain bytes.
const (
	wordIDHi = iota
	wordIDLo
	wordStart
	wordTotal
	wordBytes
	wordMELView // low 32: MEL, high 32: ViewIndex (both int32)
	wordThreshold
	wordTriageScore
	wordFlags // bits 0-7 flags, 8-15 cause, 16-23 chain length
	wordStage0
	chainWord0 = wordStage0 + tracing.NumStages
	slotWords  = chainWord0 + ChainBytes/8
)

// Flag bits in wordFlags.
const (
	flagMalicious = 1 << iota
	flagCached
	flagContent
	flagTriageCleared
)

// encode packs the event into the slot word layout. Everything is
// fixed-width integer stores into a caller-owned array — no
// allocation, no interfaces.
//
//mel:hotpath
func (e *Event) encode(w *[slotWords]uint64) {
	var idHi, idLo uint64
	for i := 0; i < 8; i++ {
		idHi = idHi<<8 | uint64(e.TraceID[i])
		idLo = idLo<<8 | uint64(e.TraceID[8+i])
	}
	w[wordIDHi] = idHi
	w[wordIDLo] = idLo
	w[wordStart] = uint64(e.StartUnixNs)
	w[wordTotal] = uint64(int64(e.Total))
	w[wordBytes] = uint64(int64(e.Bytes))
	w[wordMELView] = uint64(uint32(int32(e.MEL))) | uint64(uint32(int32(e.ViewIndex)))<<32
	w[wordThreshold] = math.Float64bits(e.Threshold)
	w[wordTriageScore] = math.Float64bits(e.TriageScore)
	var flags uint64
	if e.Malicious {
		flags |= flagMalicious
	}
	if e.Cached {
		flags |= flagCached
	}
	if e.Content {
		flags |= flagContent
	}
	if e.TriageCleared {
		flags |= flagTriageCleared
	}
	chain := e.DecodeChain
	if len(chain) > ChainBytes {
		chain = chain[:ChainBytes]
	}
	w[wordFlags] = flags | uint64(e.Cause)<<8 | uint64(len(chain))<<16
	for s := 0; s < tracing.NumStages; s++ {
		w[wordStage0+s] = uint64(int64(e.Stages[s]))
	}
	for i := chainWord0; i < slotWords; i++ {
		w[i] = 0
	}
	for i := 0; i < len(chain); i++ {
		w[chainWord0+i/8] |= uint64(chain[i]) << (uint(i%8) * 8)
	}
}

// decode unpacks a slot image back into an Event. The chain string is
// materialized here — decode runs on the read path only.
func decode(w *[slotWords]uint64) Event {
	var e Event
	for i := 7; i >= 0; i-- {
		e.TraceID[i] = byte(w[wordIDHi] >> (uint(7-i) * 8))
		e.TraceID[8+i] = byte(w[wordIDLo] >> (uint(7-i) * 8))
	}
	e.StartUnixNs = int64(w[wordStart])
	e.Total = time.Duration(int64(w[wordTotal]))
	e.Bytes = int(int64(w[wordBytes]))
	e.MEL = int(int32(uint32(w[wordMELView])))
	e.ViewIndex = int(int32(uint32(w[wordMELView] >> 32)))
	e.Threshold = math.Float64frombits(w[wordThreshold])
	e.TriageScore = math.Float64frombits(w[wordTriageScore])
	flags := w[wordFlags]
	e.Malicious = flags&flagMalicious != 0
	e.Cached = flags&flagCached != 0
	e.Content = flags&flagContent != 0
	e.TriageCleared = flags&flagTriageCleared != 0
	e.Cause = Cause(flags >> 8 & 0xff)
	for s := 0; s < tracing.NumStages; s++ {
		e.Stages[s] = time.Duration(int64(w[wordStage0+s]))
	}
	if n := int(flags >> 16 & 0xff); n > 0 {
		var buf [ChainBytes]byte
		for i := 0; i < n; i++ {
			buf[i] = byte(w[chainWord0+i/8] >> (uint(i%8) * 8))
		}
		e.DecodeChain = string(buf[:n])
	}
	return e
}

// Interesting reports whether the event bypasses the benign fast-path
// sampler: worm verdicts, failures of any cause, and anything at or
// over the slow threshold are always journaled.
//
//mel:hotpath
func (e *Event) interesting(slow time.Duration) bool {
	return e.Malicious || e.Cause != CauseOK || e.Total >= slow
}
