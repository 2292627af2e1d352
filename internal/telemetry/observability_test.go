package telemetry

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// Regression for the overflow-boundary clamp: with mass split between
// finite buckets and the +Inf bucket, quantiles whose rank stays in
// finite territory interpolate, and the first rank that crosses into
// the overflow bucket saturates at the largest finite bound instead of
// inventing a value (or sliding past the boundary uninterpolated).
func TestQuantileOverflowBoundaryRegression(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	// 8 observations inside (1,2], 2 in the overflow bucket: the 80th
	// percentile is the exact boundary.
	for i := 0; i < 8; i++ {
		h.Observe(1.5)
	}
	h.Observe(10)
	h.Observe(20)
	s := h.Snapshot()

	// Rank 8 of 10 lands exactly on the last finite bucket's cumulative
	// edge: interpolation must return its upper bound, not overshoot.
	if got := s.Quantile(0.8); got != 2 {
		t.Fatalf("q80 = %v, want 2 (edge of last finite bucket)", got)
	}
	// Ranks inside the overflow bucket clamp to the largest finite bound.
	for _, q := range []float64{0.81, 0.9, 0.99, 1} {
		if got := s.Quantile(q); got != 2 {
			t.Fatalf("q%v = %v, want clamp to 2", q, got)
		}
	}
	// Finite ranks still interpolate strictly inside their bucket.
	if got := s.Quantile(0.4); got <= 1 || got >= 2 {
		t.Fatalf("q40 = %v, want interpolated inside (1,2)", got)
	}
	// A histogram with no finite bounds at all cannot clamp: it reports 0.
	empty := HistSnapshot{Counts: []uint64{3}, Count: 3}
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("boundless q50 = %v, want 0", got)
	}
}

func TestFloatGaugeAndGaugeFunc(t *testing.T) {
	r := NewRegistry()
	fg := r.FloatGauge("fit_stat", "model fit")
	fg.Set(2.75)
	if v, ok := r.Value("fit_stat"); !ok || v != 2.75 {
		t.Fatalf("Value(fit_stat) = %v,%v", v, ok)
	}
	if fg2 := r.FloatGauge("fit_stat", ""); fg2 != fg {
		t.Fatal("same name should return the same FloatGauge")
	}

	calls := 0
	r.GaugeFunc("uptime", "seconds", func() float64 {
		calls++
		return 42.5
	})
	if v, ok := r.Value("uptime"); !ok || v != 42.5 {
		t.Fatalf("Value(uptime) = %v,%v", v, ok)
	}
	snaps := r.Snapshot()
	var found bool
	for _, s := range snaps {
		if s.Name == "uptime" {
			found = true
			if s.Value != 42.5 {
				t.Fatalf("snapshot uptime = %v", s.Value)
			}
		}
	}
	if !found || calls < 2 {
		t.Fatalf("gauge func not evaluated (found=%v calls=%d)", found, calls)
	}

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"# TYPE fit_stat gauge",
		"fit_stat 2.75",
		"# TYPE uptime gauge",
		"uptime 42.5",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestInfoMetric(t *testing.T) {
	r := NewRegistry()
	r.Info("build_info", "build metadata", map[string]string{
		"goversion": "go1.x",
		"module":    "repro",
	})
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `build_info{goversion="go1.x",module="repro"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, sb.String())
	}
	snaps := r.Snapshot()
	if len(snaps) != 1 || snaps[0].Labels["module"] != "repro" || snaps[0].Value != 1 {
		t.Fatalf("info snapshot = %+v", snaps)
	}
}

// exemplarID is a trace id of sixteen copies of b: it renders as 32
// hex digits of b's two nibbles.
func exemplarID(b byte) [16]byte {
	var id [16]byte
	for i := range id {
		id[i] = b
	}
	return id
}

func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.ObserveExemplar(0.5, exemplarID(0xaa))
	h.ObserveExemplar(0.7, exemplarID(0xbb)) // replaces aa.. in the first bucket
	h.ObserveExemplar(9.0, exemplarID(0xcc)) // overflow bucket
	h.ObserveExemplar(1.5, [16]byte{})       // zero id: counted, no exemplar
	h.Observe(1.5)                           // untraced: no exemplar
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if len(s.Exemplars) != 2 {
		t.Fatalf("exemplars = %+v, want 2 buckets", s.Exemplars)
	}
	if s.Exemplars[0].LE != "1" || s.Exemplars[0].TraceID != strings.Repeat("bb", 16) || s.Exemplars[0].Value != 0.7 {
		t.Fatalf("first exemplar = %+v", s.Exemplars[0])
	}
	if s.Exemplars[1].LE != "+Inf" || s.Exemplars[1].TraceID != strings.Repeat("cc", 16) {
		t.Fatalf("overflow exemplar = %+v", s.Exemplars[1])
	}
	// Exemplars ride the JSON snapshot but stay out of the text format.
	r := NewRegistry()
	rh := r.Histogram("lat", "", []float64{1, 2})
	rh.ObserveExemplar(0.5, exemplarID(0xdd))
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "dddd") {
		t.Fatal("exemplar leaked into text exposition")
	}
}

// TestHistogramExemplarsAllocFree: attaching an exemplar allocates
// nothing; only rendering a snapshot hex-encodes it.
func TestHistogramExemplarsAllocFree(t *testing.T) {
	h := NewHistogram(nil)
	id := exemplarID(0x5a)
	if n := testing.AllocsPerRun(100, func() { h.ObserveExemplar(3e-4, id) }); n != 0 {
		t.Fatalf("ObserveExemplar allocs/op = %v, want 0", n)
	}
}

// TestHistogramExemplarsConcurrent: writers racing on one bucket never
// leave a torn exemplar — every snapshot pairs an id with the value
// observed under it.
func TestHistogramExemplarsConcurrent(t *testing.T) {
	h := NewHistogram([]float64{1})
	const writers, ops = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				b := byte(1 + (w*ops+i)%255)
				h.ObserveExemplar(float64(b)/1000, exemplarID(b))
			}
		}(w)
	}
	stop := make(chan struct{})
	readErr := make(chan string, 1)
	go func() {
		defer close(readErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ex := range h.Snapshot().Exemplars {
				id, err := hex.DecodeString(ex.TraceID)
				if err != nil || len(id) != 16 {
					readErr <- "undecodable exemplar id " + ex.TraceID
					return
				}
				for _, c := range id {
					if c != id[0] || float64(c)/1000 != ex.Value {
						readErr <- fmt.Sprintf("torn exemplar %+v", ex)
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	if msg, ok := <-readErr; ok {
		t.Fatal(msg)
	}
	if got := h.Count(); got != writers*ops {
		t.Fatalf("count = %d, want %d", got, writers*ops)
	}
}

func TestRegisterProcessMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterProcessMetrics(r)
	start, ok := r.Value("process_start_time_seconds")
	if !ok || start <= 0 {
		t.Fatalf("process_start_time_seconds = %v,%v", start, ok)
	}
	up, ok := r.Value("process_uptime_seconds")
	if !ok || up < 0 || up > 3600 {
		t.Fatalf("process_uptime_seconds = %v,%v", up, ok)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "build_info{") {
		t.Fatalf("exposition missing build_info:\n%s", sb.String())
	}
	// Idempotent re-registration must not panic or duplicate.
	RegisterProcessMetrics(r)
	if n := len(r.Snapshot()); n != 3 {
		t.Fatalf("snapshot has %d entries after re-register, want 3", n)
	}
}

func TestDebugVarsAndMuxOptions(t *testing.T) {
	r := NewRegistry()
	r.Counter("scans_total", "scans").Add(2)
	preludes := 0
	custom := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	srv := httptest.NewServer(DebugMux(r,
		WithPrelude(func() { preludes++ }),
		WithHandler("/debug/custom", custom),
	))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("vars Content-Type = %q", ct)
	}
	var snaps []MetricSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		t.Fatalf("vars not valid JSON: %v", err)
	}
	if len(snaps) != 1 || snaps[0].Name != "scans_total" || snaps[0].Value != 2 {
		t.Fatalf("vars snapshot = %+v", snaps)
	}

	if mresp, err := srv.Client().Get(srv.URL + "/metrics"); err != nil {
		t.Fatal(err)
	} else {
		mresp.Body.Close()
	}
	if preludes != 2 {
		t.Fatalf("prelude ran %d times, want 2 (vars + metrics)", preludes)
	}

	cresp, err := srv.Client().Get(srv.URL + "/debug/custom")
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusTeapot {
		t.Fatalf("custom handler status = %d", cresp.StatusCode)
	}
}
