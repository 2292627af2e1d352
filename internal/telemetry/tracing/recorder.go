package tracing

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// ring is a fixed-capacity, lock-free overwrite buffer of completed
// traces. Writers claim a slot with one atomic add and publish the
// trace with one atomic pointer store; readers load the pointers. A
// published *Trace is immutable by contract (Finish is the last
// write), so the pointer hand-off is the only synchronization needed
// and the ring is race-clean without locks.
type ring struct {
	slots []atomic.Pointer[Trace]
	head  atomic.Uint64
	mask  uint64
}

func newRing(capacity int) *ring {
	n := nextPow2(capacity)
	return &ring{slots: make([]atomic.Pointer[Trace], n), mask: uint64(n - 1)}
}

// nextPow2 rounds n up to a power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// put publishes t, overwriting the oldest entry when full.
//
//mel:hotpath
func (r *ring) put(t *Trace) {
	i := r.head.Add(1) - 1
	r.slots[i&r.mask].Store(t)
}

// collect appends every resident trace to dst.
func (r *ring) collect(dst []*Trace) []*Trace {
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			dst = append(dst, t)
		}
	}
	return dst
}

// Recorder is the flight recorder: a sharded ring of the most recent
// completed traces plus a separate always-retained ring of the slow
// ones (total duration at or above the configured threshold). Shards
// are sized to the P count and selected by the trace id's counter
// half, so concurrent writers on different Ps land on different rings
// with no shared write cursor in the common case.
type Recorder struct {
	shards    []*ring
	shardMask uint64
	slow      *ring
	threshold int64

	recorded  atomic.Uint64
	slowCount atomic.Uint64
}

// RecorderConfig sizes a Recorder. Zero values take the defaults.
type RecorderConfig struct {
	// Recent is the total capacity of the recent-trace rings (default
	// 256, rounded up so each shard is a power of two).
	Recent int
	// Slow is the capacity of the slow-trace ring (default 64).
	Slow int
	// SlowThreshold is the total-duration floor for the slow ring
	// (default 25ms). Traces at or above it are retained in both rings.
	SlowThreshold time.Duration
	// Shards overrides the shard count (default GOMAXPROCS, rounded up
	// to a power of two).
	Shards int
}

// Recorder defaults.
const (
	DefaultRecent        = 256
	DefaultSlow          = 64
	DefaultSlowThreshold = 25 * time.Millisecond
)

// NewRecorder builds a flight recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Recent <= 0 {
		cfg.Recent = DefaultRecent
	}
	if cfg.Slow <= 0 {
		cfg.Slow = DefaultSlow
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	nShards := nextPow2(cfg.Shards)
	perShard := cfg.Recent / nShards
	if perShard < 1 {
		perShard = 1
	}
	r := &Recorder{
		shards:    make([]*ring, nShards),
		shardMask: uint64(nShards - 1),
		slow:      newRing(cfg.Slow),
		threshold: int64(cfg.SlowThreshold),
	}
	for i := range r.shards {
		r.shards[i] = newRing(perShard)
	}
	return r
}

// Record publishes a finished trace into the recent rings, and into
// the slow ring when its total duration reaches the threshold. The
// trace must not be mutated after Record.
//
//mel:hotpath
func (r *Recorder) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.recorded.Add(1)
	// The id's low half is a process-local counter (or the client's),
	// so consecutive requests stripe across shards. A client chooses its
	// own id, so the shard index is checked against the shard count
	// here rather than trusted to the mask alone.
	shard := (uint64(t.ID[IDLen-1]) | uint64(t.ID[IDLen-2])<<8) & r.shardMask
	if shard >= uint64(len(r.shards)) {
		shard = 0
	}
	r.shards[shard].put(t)
	if t.total >= r.threshold {
		r.slowCount.Add(1)
		r.slow.put(t)
	}
}

// Recorded returns the number of traces recorded since start.
func (r *Recorder) Recorded() uint64 { return r.recorded.Load() }

// SlowCount returns the number of traces that crossed the slow
// threshold since start.
func (r *Recorder) SlowCount() uint64 { return r.slowCount.Load() }

// SlowThreshold returns the configured slow-trace floor.
func (r *Recorder) SlowThreshold() time.Duration { return time.Duration(r.threshold) }

// Recent returns up to max of the most recently recorded traces,
// newest first. max <= 0 returns everything resident.
func (r *Recorder) Recent(max int) []*Trace {
	var out []*Trace
	for _, s := range r.shards {
		out = s.collect(out)
	}
	return sortTrim(out, max)
}

// Slow returns up to max of the retained slow traces, newest first.
func (r *Recorder) Slow(max int) []*Trace {
	return sortTrim(r.slow.collect(nil), max)
}

// sortTrim orders traces newest-start-first and truncates to max.
func sortTrim(ts []*Trace, max int) []*Trace {
	sort.Slice(ts, func(i, j int) bool {
		if !ts[i].Start.Equal(ts[j].Start) {
			return ts[i].Start.After(ts[j].Start)
		}
		// Start collisions (coarse clocks, synthetic traces): break the
		// tie by id so the order is deterministic.
		return ts[i].ID.String() > ts[j].ID.String()
	})
	if max > 0 && len(ts) > max {
		ts = ts[:max]
	}
	return ts
}
