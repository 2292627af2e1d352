package tracing

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// StageJSON is one recorded stage in the debug JSON.
type StageJSON struct {
	// Name is the canonical stage name (queue_wait, cache, threshold,
	// decode, dp).
	Name string `json:"name"`
	// DurNs is the stage duration in nanoseconds.
	DurNs int64 `json:"dur_ns"`
}

// TraceJSON is the debug-endpoint shape of one trace. Timestamps are
// unix nanoseconds so the output is locale- and zone-independent.
type TraceJSON struct {
	ID          string  `json:"id"`
	StartUnixNs int64   `json:"start_unix_ns"`
	TotalNs     int64   `json:"total_ns"`
	Bytes       int     `json:"bytes"`
	MEL         int     `json:"mel"`
	Threshold   float64 `json:"threshold"`
	Malicious   bool    `json:"malicious"`
	Cached      bool    `json:"cached"`
	// Content-pipeline fields; ViewIndex is a pointer so view 0 (the raw
	// payload) still renders while non-pipeline scans omit the field.
	ViewIndex     *int        `json:"view_index,omitempty"`
	DecodeChain   string      `json:"decode_chain,omitempty"`
	TriageScore   float64     `json:"triage_score,omitempty"`
	TriageCleared bool        `json:"triage_cleared,omitempty"`
	Err           string      `json:"error,omitempty"`
	Stages        []StageJSON `json:"stages"`
}

// Snapshot converts a trace to its JSON form. Stages that never
// closed are omitted.
func Snapshot(t *Trace) TraceJSON {
	out := TraceJSON{
		ID:          t.ID.String(),
		StartUnixNs: t.Start.UnixNano(),
		TotalNs:     t.total,
		Bytes:       t.Bytes,
		MEL:         t.MEL,
		Threshold:   t.Threshold,
		Malicious:   t.Malicious,
		Cached:      t.Cached,
		Err:         t.Err,
		Stages:      make([]StageJSON, 0, NumStages),
	}
	if t.ViewIndex >= 0 {
		vi := t.ViewIndex
		out.ViewIndex = &vi
		out.DecodeChain = t.DecodeChain
		out.TriageScore = t.TriageScore
		out.TriageCleared = t.TriageCleared
	}
	for s := Stage(0); int(s) < NumStages; s++ {
		if t.stageDur[s] < 0 {
			continue
		}
		out.Stages = append(out.Stages, StageJSON{Name: s.String(), DurNs: t.stageDur[s]})
	}
	return out
}

// Page is the envelope both debug endpoints serve.
type Page struct {
	// Count is the number of traces in this response.
	Count int `json:"count"`
	// Recorded is the total recorded since process start; Slow the
	// total that crossed the slow threshold.
	Recorded uint64 `json:"recorded"`
	Slow     uint64 `json:"slow"`
	// SlowThresholdNs is the retention floor of the slow ring.
	SlowThresholdNs int64       `json:"slow_threshold_ns"`
	Traces          []TraceJSON `json:"traces"`
}

// defaultPageMax bounds one debug response unless ?n= overrides it.
const defaultPageMax = 128

// page renders ts into the JSON envelope.
func (r *Recorder) page(ts []*Trace) Page {
	p := Page{
		Count:           len(ts),
		Recorded:        r.Recorded(),
		Slow:            r.SlowCount(),
		SlowThresholdNs: r.threshold,
		Traces:          make([]TraceJSON, 0, len(ts)),
	}
	for _, t := range ts {
		p.Traces = append(p.Traces, Snapshot(t))
	}
	return p
}

// serve writes one page, honouring the ?n= limit parameter.
func serve(w http.ResponseWriter, req *http.Request, r *Recorder, fetch func(int) []*Trace) {
	max := defaultPageMax
	if s := req.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			max = v
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(r.page(fetch(max)))
}

// RecentHandler serves the most recent completed traces — the
// /debug/traces endpoint body.
func RecentHandler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		serve(w, req, r, r.Recent)
	})
}

// SlowHandler serves the retained slow/over-threshold traces — the
// /debug/requests endpoint body.
func SlowHandler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		serve(w, req, r, r.Slow)
	})
}
