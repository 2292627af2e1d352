package server

import (
	"encoding/json"
	"net/http"
)

// Health states, ordered from healthy to unavailable.
const (
	// HealthServing: accepting work with queue headroom.
	HealthServing = "serving"
	// HealthOverloaded: accepting connections but the scan queue is
	// full — submissions are being shed.
	HealthOverloaded = "overloaded"
	// HealthDraining: shutdown has begun; no new work is accepted.
	HealthDraining = "draining"
)

// HealthStatus is the /debug/health body — the readiness signal
// trafficgen and cluster health checks key on.
type HealthStatus struct {
	// Status is one of serving, overloaded, draining.
	Status string `json:"status"`
	// QueueDepth / QueueCapacity expose the pool occupancy behind the
	// overloaded judgement.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
}

// Health reports the server's current readiness. Draining wins over
// overloaded: once shutdown begins the state is terminal.
func (s *Server) Health() HealthStatus {
	depth, capacity := s.pool.Queue()
	st := HealthStatus{Status: HealthServing, QueueDepth: depth, QueueCapacity: capacity}
	if capacity > 0 && depth >= capacity {
		st.Status = HealthOverloaded
	}
	if s.draining.Load() {
		st.Status = HealthDraining
	}
	return st
}

// HealthHandler serves Health as JSON: 200 while serving, 503 while
// overloaded or draining, so a plain HTTP check (or an LB) needs no
// body parsing.
func (s *Server) HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		st := s.Health()
		w.Header().Set("Content-Type", "application/json")
		if st.Status != HealthServing {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
}
