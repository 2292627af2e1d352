package events

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/telemetry/tracing"
)

// EventJSON is the wire shape of one wide event, shared by the JSONL
// sink and /debug/events. Timestamps are unix nanoseconds.
type EventJSON struct {
	Trace       string  `json:"trace,omitempty"`
	StartUnixNs int64   `json:"start_unix_ns"`
	TotalNs     int64   `json:"total_ns"`
	Bytes       int     `json:"bytes"`
	MEL         int     `json:"mel"`
	Threshold   float64 `json:"threshold"`
	Malicious   bool    `json:"malicious"`
	Cached      bool    `json:"cached,omitempty"`
	// Content-pipeline fields mirror the trace JSON: ViewIndex is a
	// pointer so view 0 still renders while non-pipeline scans omit it.
	ViewIndex     *int                `json:"view_index,omitempty"`
	DecodeChain   string              `json:"decode_chain,omitempty"`
	TriageScore   float64             `json:"triage_score,omitempty"`
	TriageCleared bool                `json:"triage_cleared,omitempty"`
	Cause         string              `json:"cause"`
	Stages        []tracing.StageJSON `json:"stages,omitempty"`
}

// JSON converts an event to its wire shape. Stages that never ran
// (negative duration) are omitted.
func JSON(e *Event) EventJSON {
	out := EventJSON{
		StartUnixNs: e.StartUnixNs,
		TotalNs:     int64(e.Total),
		Bytes:       e.Bytes,
		MEL:         e.MEL,
		Threshold:   e.Threshold,
		Malicious:   e.Malicious,
		Cached:      e.Cached,
		Cause:       e.Cause.String(),
	}
	if e.TraceID != (tracing.TraceID{}) {
		out.Trace = e.TraceID.String()
	}
	if e.Content {
		vi := e.ViewIndex
		out.ViewIndex = &vi
		out.DecodeChain = e.DecodeChain
		out.TriageScore = e.TriageScore
		out.TriageCleared = e.TriageCleared
	}
	for s := tracing.Stage(0); int(s) < tracing.NumStages; s++ {
		if e.Stages[s] < 0 {
			continue
		}
		out.Stages = append(out.Stages, tracing.StageJSON{Name: s.String(), DurNs: int64(e.Stages[s])})
	}
	return out
}

// Page is the /debug/events envelope.
type Page struct {
	// Count is the number of events in this response; Recorded,
	// SampledOut, and SlowThresholdNs describe the journal itself.
	Count           int         `json:"count"`
	Recorded        uint64      `json:"recorded"`
	SampledOut      uint64      `json:"sampled_out"`
	SlowThresholdNs int64       `json:"slow_threshold_ns"`
	Events          []EventJSON `json:"events"`
}

// defaultPageMax bounds one debug response unless ?n= overrides it.
const defaultPageMax = 128

// matchVerdict maps the ?verdict= filter values onto an event.
// Recognized values: malicious, benign, cached, cleared, error (any
// non-ok cause), plus every canonical cause name (shed, deadline,
// scan_error, shutdown, other, ok).
func matchVerdict(e *Event, v string) bool {
	switch v {
	case "", "all":
		return true
	case "malicious":
		return e.Malicious
	case "benign":
		return e.Cause == CauseOK && !e.Malicious
	case "cached":
		return e.Cached
	case "cleared":
		return e.TriageCleared
	case "error":
		return e.Cause != CauseOK
	}
	if c, ok := ParseCause(v); ok {
		return e.Cause == c
	}
	return false
}

// Handler serves the journal as filterable JSON — the /debug/events
// endpoint body. Query parameters:
//
//	?n=N          cap the response (default 128)
//	?verdict=V    malicious | benign | cached | cleared | error | <cause>
//	?min_ms=M     only events with total latency >= M milliseconds
//	?trace=HEX    events whose trace id starts with the hex prefix
//	?since_ns=T   only events starting at or after unix-nanosecond T
func Handler(j *Journal) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		max := defaultPageMax
		if s := q.Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				max = v
			}
		}
		verdict := q.Get("verdict")
		var minNs int64
		if s := q.Get("min_ms"); s != "" {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
				minNs = int64(v * 1e6)
			}
		}
		tracePrefix := strings.ToLower(q.Get("trace"))
		var sinceNs int64
		if s := q.Get("since_ns"); s != "" {
			if v, err := strconv.ParseInt(s, 10, 64); err == nil {
				sinceNs = v
			}
		}
		all := j.Snapshot(0)
		page := Page{
			Recorded:        j.Recorded(),
			SampledOut:      j.SampledOut(),
			SlowThresholdNs: int64(j.SlowThreshold()),
		}
		for i := range all {
			e := &all[i]
			if int64(e.Total) < minNs || e.StartUnixNs < sinceNs || !matchVerdict(e, verdict) {
				continue
			}
			if tracePrefix != "" && !strings.HasPrefix(e.TraceID.String(), tracePrefix) {
				continue
			}
			page.Events = append(page.Events, JSON(e))
			if len(page.Events) >= max {
				break
			}
		}
		page.Count = len(page.Events)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(page)
	})
}
