package server_test

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/telemetry/events"
)

func getHealth(t *testing.T, srv *server.Server) (int, server.HealthStatus) {
	t.Helper()
	rr := httptest.NewRecorder()
	srv.HealthHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/health", nil))
	var st server.HealthStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad health JSON: %v", err)
	}
	return rr.Code, st
}

func TestHealthServingThenDraining(t *testing.T) {
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Detector: det, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	code, st := getHealth(t, srv)
	if code != 200 || st.Status != server.HealthServing {
		t.Fatalf("fresh server health = %d/%s, want 200/serving", code, st.Status)
	}
	if st.QueueCapacity != 4 {
		t.Fatalf("queue capacity %d, want 4", st.QueueCapacity)
	}
	srv.Close()
	code, st = getHealth(t, srv)
	if code != 503 || st.Status != server.HealthDraining {
		t.Fatalf("closed server health = %d/%s, want 503/draining", code, st.Status)
	}
}

func TestHealthOverloaded(t *testing.T) {
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Detector: det, Workers: 1, QueueDepth: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Stall the single worker, then fill the one queue slot.
	release := make(chan struct{})
	block := benignPayloads(t, 7, 1)[0]
	if err := submit(srv.Pool(), block, time.Time{}, func(core.Verdict, bool, error) {
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	defer close(release)
	deadlineWait := time.After(2 * time.Second)
	for {
		if err := submit(srv.Pool(), block, time.Time{}, func(core.Verdict, bool, error) {}); err != nil {
			break // queue full: pool shed — now overloaded
		}
		select {
		case <-deadlineWait:
			t.Fatal("queue never filled")
		default:
		}
	}
	code, st := getHealth(t, srv)
	if code != 503 || st.Status != server.HealthOverloaded {
		t.Fatalf("full-queue health = %d/%s (depth %d/%d), want 503/overloaded",
			code, st.Status, st.QueueDepth, st.QueueCapacity)
	}
}

// TestPoolJournalsOutcomes: the pool's event hook journals served,
// shed, and error outcomes with the right causes.
func TestPoolJournalsOutcomes(t *testing.T) {
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	j := events.New(events.Config{Capacity: 64, Shards: 1, SampleEvery: 1})
	pool, err := server.NewPool(server.PoolConfig{
		Detector: det, Workers: 1, QueueDepth: 1, CacheSize: -1, Events: j,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := benignPayloads(t, 11, 1)[0]

	// A served verdict.
	done := make(chan struct{})
	if err := submit(pool, payload, time.Time{}, func(core.Verdict, bool, error) { close(done) }); err != nil {
		t.Fatal(err)
	}
	<-done

	// A shed: stall the worker, fill the queue, then overflow it.
	release := make(chan struct{})
	stalled := make(chan struct{})
	if err := submit(pool, payload, time.Time{}, func(core.Verdict, bool, error) {
		close(stalled)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-stalled
	shedSeen := false
	deadlineWait := time.After(2 * time.Second)
	for !shedSeen {
		if err := submit(pool, payload, time.Time{}, func(core.Verdict, bool, error) {}); err != nil {
			shedSeen = true
		}
		select {
		case <-deadlineWait:
			t.Fatal("never shed")
		default:
		}
	}
	close(release)
	pool.Close()

	var causes []string
	for _, e := range j.Snapshot(0) {
		causes = append(causes, e.Cause.String())
	}
	haveOK, haveShed := false, false
	for _, c := range causes {
		switch c {
		case "ok":
			haveOK = true
		case "shed":
			haveShed = true
		}
	}
	if !haveOK || !haveShed {
		t.Fatalf("journal causes %v, want ok and shed present", causes)
	}
}
