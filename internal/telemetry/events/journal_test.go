package events

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
)

func testEvent(i int) Event {
	var id tracing.TraceID
	id[0] = 0xab
	id[15] = byte(i)
	id[14] = byte(i >> 8)
	e := Event{
		TraceID:     id,
		StartUnixNs: int64(1_700_000_000_000_000_000 + i),
		Total:       time.Duration(i) * time.Microsecond,
		Bytes:       4096,
		MEL:         17,
		Threshold:   22.5,
		ViewIndex:   -1,
	}
	for s := range e.Stages {
		e.Stages[s] = -1
	}
	e.Stages[tracing.StageDP] = 123 * time.Microsecond
	return e
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := testEvent(7)
	e.Malicious = true
	e.Cached = true
	e.Content = true
	e.ViewIndex = 2
	e.DecodeChain = "base64>gzip"
	e.TriageScore = 0.75
	e.TriageCleared = true
	e.Cause = CauseScanError
	var w [slotWords]uint64
	e.encode(&w)
	got := decode(&w)
	if got != e {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

func TestEncodeTruncatesLongChain(t *testing.T) {
	e := testEvent(1)
	e.DecodeChain = strings.Repeat("x", ChainBytes+20)
	var w [slotWords]uint64
	e.encode(&w)
	got := decode(&w)
	if len(got.DecodeChain) != ChainBytes || got.DecodeChain != e.DecodeChain[:ChainBytes] {
		t.Fatalf("chain not truncated to %d bytes: got %d", ChainBytes, len(got.DecodeChain))
	}
}

func TestCauseNamesRoundTrip(t *testing.T) {
	for c := CauseOK; c < numCauses; c++ {
		got, ok := ParseCause(c.String())
		if !ok || got != c {
			t.Fatalf("cause %d name %q did not round trip", c, c.String())
		}
	}
	if _, ok := ParseCause("nope"); ok {
		t.Fatal("ParseCause accepted an unknown name")
	}
	if Cause(200).String() != "unknown" {
		t.Fatal("out-of-range cause should stringify as unknown")
	}
}

func TestSamplingPolicy(t *testing.T) {
	j := New(Config{Capacity: 256, Shards: 1, SampleEvery: 4, SlowThreshold: time.Second})
	// 40 benign fast-path events: 1 in 4 kept.
	for i := 0; i < 40; i++ {
		e := testEvent(i)
		j.Record(&e)
	}
	if got := j.Recorded(); got != 10 {
		t.Fatalf("benign sampling kept %d of 40, want 10", got)
	}
	if got := j.SampledOut(); got != 30 {
		t.Fatalf("sampled out %d, want 30", got)
	}
	// Interesting events always land: slow, malicious, every failure cause.
	interesting := []func(*Event){
		func(e *Event) { e.Total = 2 * time.Second },
		func(e *Event) { e.Malicious = true },
		func(e *Event) { e.Cause = CauseShed },
		func(e *Event) { e.Cause = CauseDeadline },
		func(e *Event) { e.Cause = CauseScanError },
	}
	before := j.Recorded()
	for i, mut := range interesting {
		for k := 0; k < 8; k++ {
			e := testEvent(100 + i*8 + k)
			mut(&e)
			j.Record(&e)
		}
	}
	if got := j.Recorded() - before; got != uint64(8*len(interesting)) {
		t.Fatalf("interesting events journaled %d of %d", got, 8*len(interesting))
	}
}

func TestSnapshotNewestFirstAndBounded(t *testing.T) {
	j := New(Config{Capacity: 64, Shards: 1, SampleEvery: 1})
	for i := 0; i < 50; i++ {
		e := testEvent(i)
		j.Record(&e)
	}
	got := j.Snapshot(10)
	if len(got) != 10 {
		t.Fatalf("snapshot returned %d events, want 10", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].StartUnixNs > got[i-1].StartUnixNs {
			t.Fatalf("snapshot not newest-first at %d", i)
		}
	}
	if got[0].StartUnixNs != testEvent(49).StartUnixNs {
		t.Fatalf("newest event missing: got start %d", got[0].StartUnixNs)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	j := New(Config{Capacity: 8, Shards: 1, SampleEvery: 1})
	for i := 0; i < 100; i++ {
		e := testEvent(i)
		j.Record(&e)
	}
	got := j.Snapshot(0)
	if len(got) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(got))
	}
	for _, e := range got {
		if e.StartUnixNs < testEvent(92).StartUnixNs {
			t.Fatalf("ring retained stale event start=%d", e.StartUnixNs)
		}
	}
}

// TestJournalHammer drives concurrent writers against concurrent
// snapshotters; under -race this is the journal's lock-freedom proof,
// and decoded events must always be internally consistent.
func TestJournalHammer(t *testing.T) {
	j := New(Config{Capacity: 128, Shards: 4, SampleEvery: 1})
	const writers = 8
	const perWriter = 2000
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := testEvent(w*perWriter + i)
				e.DecodeChain = "b64>gz"
				e.Content = true
				e.ViewIndex = w
				j.Record(&e)
			}
		}(w)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range j.Snapshot(0) {
				if e.Bytes != 4096 || e.MEL != 17 {
					t.Errorf("torn event escaped seqlock: %+v", e)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	total := j.Recorded() + j.collisions.Value()
	if total != writers*perWriter {
		t.Fatalf("accounting leak: recorded+collisions=%d, want %d", total, writers*perWriter)
	}
}

func TestNilJournalAndNilTraceID(t *testing.T) {
	var j *Journal
	e := testEvent(0)
	j.Record(&e) // must not panic
	j2 := New(Config{Capacity: 16, Shards: 2, SampleEvery: 1})
	for i := 0; i < 10; i++ {
		ev := Event{StartUnixNs: int64(i), ViewIndex: -1} // zero trace id
		j2.Record(&ev)
	}
	if got := j2.Recorded(); got != 10 {
		t.Fatalf("zero-id events recorded %d of 10", got)
	}
}

func TestSinkWritesAndRotates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	sink, err := NewSink(SinkConfig{Path: path, MaxBytes: 2048, Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	j := New(Config{Capacity: 64, Shards: 1, SampleEvery: 1, Sink: sink})
	for i := 0; i < 200; i++ {
		e := testEvent(i)
		e.Cause = CauseShed
		j.Record(&e)
		if i%16 == 0 {
			time.Sleep(time.Millisecond) // let the writer drain
		}
	}
	sink.Close()
	sink.Close() // idempotent
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatalf("no rotated spool: %v", err)
	}
	lines := 0
	for _, chunk := range [][]byte{rotated, data} {
		for _, ln := range strings.Split(strings.TrimSpace(string(chunk)), "\n") {
			if ln == "" {
				continue
			}
			var ej EventJSON
			if err := json.Unmarshal([]byte(ln), &ej); err != nil {
				t.Fatalf("bad JSONL line %q: %v", ln, err)
			}
			if ej.Cause != "shed" {
				t.Fatalf("cause %q, want shed", ej.Cause)
			}
			lines++
		}
	}
	if lines == 0 {
		t.Fatal("sink wrote nothing")
	}
	if len(rotated) < 1024 {
		t.Fatalf("rotated file suspiciously small: %d bytes", len(rotated))
	}
}

func TestHandlerFilters(t *testing.T) {
	reg := telemetry.NewRegistry()
	j := New(Config{Capacity: 256, Shards: 1, SampleEvery: 1, Registry: reg})
	mal := testEvent(1)
	mal.Malicious = true
	j.Record(&mal)
	shed := testEvent(2)
	shed.Cause = CauseShed
	j.Record(&shed)
	slow := testEvent(3)
	slow.Total = 40 * time.Millisecond
	j.Record(&slow)
	fast := testEvent(4)
	j.Record(&fast)

	get := func(query string) Page {
		t.Helper()
		req := httptest.NewRequest("GET", "/debug/events"+query, nil)
		rr := httptest.NewRecorder()
		Handler(j).ServeHTTP(rr, req)
		var p Page
		if err := json.Unmarshal(rr.Body.Bytes(), &p); err != nil {
			t.Fatalf("bad page JSON: %v", err)
		}
		return p
	}

	if p := get(""); p.Count != 4 || p.Recorded != 4 {
		t.Fatalf("unfiltered page count=%d recorded=%d, want 4/4", p.Count, p.Recorded)
	}
	if p := get("?verdict=malicious"); p.Count != 1 || !p.Events[0].Malicious {
		t.Fatalf("verdict=malicious returned %d events", p.Count)
	}
	if p := get("?verdict=shed"); p.Count != 1 || p.Events[0].Cause != "shed" {
		t.Fatalf("verdict=shed returned %d events", p.Count)
	}
	if p := get("?verdict=error"); p.Count != 1 {
		t.Fatalf("verdict=error returned %d events", p.Count)
	}
	if p := get("?verdict=benign"); p.Count != 2 {
		t.Fatalf("verdict=benign returned %d events, want 2", p.Count)
	}
	if p := get("?min_ms=10"); p.Count != 1 || p.Events[0].TotalNs != int64(40*time.Millisecond) {
		t.Fatalf("min_ms=10 returned %d events", p.Count)
	}
	wantPrefix := mal.TraceID.String()
	if p := get("?trace=" + wantPrefix); p.Count != 1 || !strings.HasPrefix(p.Events[0].Trace, wantPrefix) {
		t.Fatalf("trace prefix filter returned %d events", p.Count)
	}
	if p := get("?n=2"); p.Count != 2 {
		t.Fatalf("n=2 returned %d events", p.Count)
	}
	since := testEvent(3).StartUnixNs
	if p := get("?since_ns=" + strconv.FormatInt(since, 10)); p.Count != 2 {
		t.Fatalf("since_ns returned %d events, want 2", p.Count)
	}
	if p := get("?verdict=bogus"); p.Count != 0 {
		t.Fatalf("unknown verdict matched %d events", p.Count)
	}
}
