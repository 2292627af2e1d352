// Package telemetry is the observability substrate for the serving
// layer: lock-cheap counters, gauges, and fixed-bucket latency
// histograms behind a named registry with a snapshot API and an HTTP
// exposition endpoint. Everything is stdlib-only and safe for
// concurrent use from the scan hot path — a counter increment is one
// atomic add, a histogram observation is two atomic adds plus a CAS
// loop for the running sum.
package telemetry

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (queue depth, active conns).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an instantaneous float64 value (fit statistics, drift
// estimates, timestamps). Stored as float bits behind one atomic word.
type FloatGauge struct {
	v atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// DefLatencyBuckets are the default histogram bounds for scan
// latencies, in seconds: 50µs up to 5s, roughly logarithmic. The scan
// service's p99 targets live comfortably inside this range.
func DefLatencyBuckets() []float64 {
	return []float64{
		50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
		1, 2.5, 5,
	}
}

// Histogram is a fixed-bucket histogram. Bounds are upper bounds in
// ascending order; an implicit +Inf bucket catches the overflow.
// Observations are atomic per-bucket adds — no locks, no allocation.
type Histogram struct {
	bounds    []float64
	counts    []atomic.Uint64 // len(bounds)+1, last is +Inf
	count     atomic.Uint64
	sum       atomic.Uint64  // float64 bits, CAS-accumulated
	exemplars []exemplarSlot // len(bounds)+1, latest per bucket
}

// exemplarSlot links a histogram bucket to one concrete observation —
// the most recent traced value that landed there — so a latency spike
// in a bucket can be chased to a flight-recorder entry by trace id.
// The id and value live in plain atomic words behind a sequence word
// (a seqlock: odd while a writer is mid-update), so publishing an
// exemplar allocates nothing; the id is hex-encoded only when a
// snapshot renders it.
type exemplarSlot struct {
	seq atomic.Uint64
	id  [2]atomic.Uint64
	val atomic.Uint64 // float64 bits
}

// store publishes (id, v). A writer that finds the slot mid-update
// leaves it to the writer holding it: both observations are equally
// recent, and the exemplar is a sample, not a log.
func (e *exemplarSlot) store(id [16]byte, v float64) {
	s := e.seq.Load()
	if s&1 != 0 || !e.seq.CompareAndSwap(s, s+1) {
		return
	}
	e.id[0].Store(binary.BigEndian.Uint64(id[:8]))
	e.id[1].Store(binary.BigEndian.Uint64(id[8:]))
	e.val.Store(math.Float64bits(v))
	e.seq.Store(s + 2)
}

// load returns a consistent copy of the slot; ok is false while the
// slot has never been written. A read that overlaps a write retries.
func (e *exemplarSlot) load() (id [16]byte, v float64, ok bool) {
	for {
		s := e.seq.Load()
		if s == 0 {
			return id, 0, false
		}
		if s&1 != 0 {
			runtime.Gosched()
			continue
		}
		hi, lo, bits := e.id[0].Load(), e.id[1].Load(), e.val.Load()
		if e.seq.Load() != s {
			continue
		}
		binary.BigEndian.PutUint64(id[:8], hi)
		binary.BigEndian.PutUint64(id[8:], lo)
		return id, math.Float64frombits(bits), true
	}
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. Unsorted input is sorted; duplicate bounds are tolerated.
// Nil or empty bounds take DefLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets()
	} else {
		bounds = append([]float64(nil), bounds...)
		sort.Float64s(bounds)
	}
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]exemplarSlot, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	h.observeAt(sort.SearchFloat64s(h.bounds, v), v)
}

// ObserveExemplar records one value and attaches traceID as the
// bucket's exemplar, replacing any previous one; a zero id attaches
// none. The exemplar costs a few atomic stores on top of Observe and
// allocates nothing.
func (h *Histogram) ObserveExemplar(v float64, traceID [16]byte) {
	i := sort.SearchFloat64s(h.bounds, v)
	if traceID != ([16]byte{}) {
		h.exemplars[i].store(traceID, v)
	}
	h.observeAt(i, v)
}

// observeAt counts v into bucket i and the running sum.
func (h *Histogram) observeAt(i int, v float64) {
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot returns a consistent-enough copy for reporting. Individual
// bucket loads are atomic; the snapshot as a whole is not a linearizable
// cut, which is fine for monitoring.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	for i := range h.exemplars {
		id, v, ok := h.exemplars[i].load()
		if !ok {
			continue
		}
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		s.Exemplars = append(s.Exemplars, BucketExemplar{
			LE: le, TraceID: hex.EncodeToString(id[:]), Value: v,
		})
	}
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) from the live buckets.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	// Bounds are the finite upper bounds; Counts has one extra slot for
	// the +Inf bucket.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	// Exemplars are the latest traced observation per bucket, if any.
	Exemplars []BucketExemplar `json:"exemplars,omitempty"`
}

// BucketExemplar is a bucket's exemplar in snapshot form. LE is the
// bucket's upper bound rendered as Prometheus does ("+Inf" for the
// overflow bucket), so it can double as a label value.
type BucketExemplar struct {
	LE      string  `json:"le"`
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// Quantile estimates the q-quantile by linear interpolation inside the
// finite bucket that contains the target rank.
//
// Saturation at the overflow boundary: observations above the largest
// finite bound land in the +Inf bucket, which has no upper edge to
// interpolate toward. Any quantile whose rank falls there is CLAMPED to
// the largest finite bound — the estimate is a floor, and every q high
// enough to land in the overflow bucket reports the same saturated
// value. Size the bounds so the latencies you care about stay inside
// them. Returns 0 for an empty histogram, q outside (0, 1], or a
// histogram with no finite bounds.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q <= 0 || q > 1 || len(s.Bounds) == 0 {
		return 0
	}
	saturate := s.Bounds[len(s.Bounds)-1]
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// Rank fell in the +Inf bucket: clamp (see doc comment).
			return saturate
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			// Unreachable (cum only crosses rank when c > 0), kept as a
			// division guard.
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return saturate
}

// Mean returns the average observation, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}
