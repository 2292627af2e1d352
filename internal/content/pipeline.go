package content

import (
	"errors"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
)

// ScanFunc is the MEL pass the pipeline gates — normally
// core.Detector.ScanTraced.
type ScanFunc func(payload []byte, tr *tracing.Trace) (core.Verdict, error)

// PipelineConfig configures a Pipeline. Zero values select calibrated
// defaults everywhere.
type PipelineConfig struct {
	// Triage holds the clear thresholds of the gate stage.
	Triage TriageConfig
	// Decoder bounds the decode front end.
	Decoder DecoderConfig
	// Registry receives the pipeline's telemetry; nil disables it.
	Registry *telemetry.Registry
}

// pipelineMetrics are the per-stage counters. All nil-safe: a pipeline
// built without a registry carries a nil struct and every record
// method no-ops.
type pipelineMetrics struct {
	scans        *telemetry.Counter
	cleared      *telemetry.Counter
	viewsScanned *telemetry.Counter
	viewsCleared *telemetry.Counter
	viewHits     *telemetry.Counter
	budgetTrips  *telemetry.Counter
	decodeErrors *telemetry.Counter
	score        *telemetry.Histogram
}

func newPipelineMetrics(r *telemetry.Registry) *pipelineMetrics {
	if r == nil {
		return nil
	}
	return &pipelineMetrics{
		scans:        r.Counter("content_scans_total", "payloads entering the content pipeline"),
		cleared:      r.Counter("content_triage_cleared_total", "payloads cleared by triage without a MEL pass"),
		viewsScanned: r.Counter("content_views_scanned_total", "decoded views run through the MEL pass"),
		viewsCleared: r.Counter("content_views_cleared_total", "decoded views cleared by triage"),
		viewHits:     r.Counter("content_view_malicious_total", "malicious verdicts found in a decoded view (wrapped payloads)"),
		budgetTrips:  r.Counter("content_decode_budget_total", "decodes cut short by the output budget (zip-bomb guard)"),
		decodeErrors: r.Counter("content_view_scan_errors_total", "decoded views whose MEL pass failed"),
		score: r.Histogram("content_triage_score", "triage suspicion score per payload",
			[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}),
	}
}

// Pipeline composes triage → decode → MEL: the triage gate clears what
// it can, the decode front end unwraps what it can't, and the MEL pass
// runs on the raw payload plus every decoded view until one flags. Its
// verdict is a function of the payload bytes and the configuration
// alone: every scan peels to the configured MaxDepth, whatever the
// load. It is safe for concurrent use.
type Pipeline struct {
	triage *Triage
	dec    *Decoder
	scan   ScanFunc
	m      *pipelineMetrics
}

// NewPipeline builds a pipeline around scan.
func NewPipeline(scan ScanFunc, cfg PipelineConfig) (*Pipeline, error) {
	if scan == nil {
		return nil, errors.New("content: nil scan func")
	}
	dec, err := NewDecoder(cfg.Decoder)
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		triage: NewTriage(cfg.Triage),
		dec:    dec,
		scan:   scan,
		m:      newPipelineMetrics(cfg.Registry),
	}, nil
}

// Triage exposes the configured gate (for calibration tooling).
func (p *Pipeline) Triage() *Triage { return p.triage }

// Decoder exposes the configured decode front end.
func (p *Pipeline) Decoder() *Decoder { return p.dec }

// Scan is ScanTraced without instrumentation.
func (p *Pipeline) Scan(payload []byte) (core.Verdict, error) {
	return p.ScanTraced(payload, nil)
}

// ScanTraced runs payload through the cascade. The triage stage and
// the decode/view loop are timed onto tr as StageTriage and
// StageContentDecode (the engine stages inside reflect the last view
// scanned); tr is used for stage timing only. The content outcome —
// view index, decode chain, triage score — is set on the returned
// verdict, which the caller stamps on its trace.
//
// A triage clear skips only the raw-payload MEL pass; layer sniffing
// still runs, because a statistics-only clear cannot vouch for bytes
// hiding behind an encoding (base64 of mostly-text content sits below
// every entropy ceiling). Each decoded view is triaged and scanned the
// same way, so plain text — which sniffs no layers — costs zero MEL
// passes, while a wrapped worm is always unwrapped and caught. The
// first malicious verdict wins and carries its decode chain; otherwise
// the raw payload's verdict is returned. A decode cut short by the
// output budget is not an error: the views produced before the cut are
// still scanned and the trip is counted.
func (p *Pipeline) ScanTraced(payload []byte, tr *tracing.Trace) (core.Verdict, error) {
	p.m.inc(func(m *pipelineMetrics) *telemetry.Counter { return m.scans })

	// One byte pass over the payload feeds both the gate and the
	// decoder's first sniff.
	tr.StageStart(tracing.StageTriage)
	res, all := passStats(payload, p.triage)
	tr.StageEnd(tracing.StageTriage)
	if p.m != nil {
		p.m.score.Observe(res.Score)
	}

	var raw core.Verdict
	if res.Cleared {
		p.m.inc(func(m *pipelineMetrics) *telemetry.Counter { return m.cleared })
		raw = core.Verdict{TriageScore: res.Score, TriageCleared: true}
	} else {
		var err error
		raw, err = p.scan(payload, tr)
		if err != nil {
			return raw, err
		}
		raw.ViewIndex, raw.DecodeChain, raw.TriageScore = 0, "", res.Score
		if raw.Malicious {
			return raw, nil
		}
	}

	tr.StageStart(tracing.StageContentDecode)
	verdict := p.scanViews(payload, all, res.Score, tr)
	tr.StageEnd(tracing.StageContentDecode)
	if verdict.Malicious {
		return verdict, nil
	}
	return raw, nil
}

// scanViews walks the decoded views of payload, whose sniff counts are
// all, scanning each view its gate result does not clear, and returns
// the first malicious verdict (zero Verdict when none flag).
func (p *Pipeline) scanViews(payload []byte, all byteStats, score float64, tr *tracing.Trace) core.Verdict {
	var hit core.Verdict
	index := 0
	budget := p.dec.maxOutput
	p.dec.walk(payload, all, Chain{}, p.dec.maxDepth, &budget, p.triage, func(view View, vres TriageResult, derr error) bool {
		if derr != nil {
			// Budget trip: the views already scanned stand; count and stop.
			p.m.inc(func(m *pipelineMetrics) *telemetry.Counter { return m.budgetTrips })
			return false
		}
		index++
		if vres.Cleared {
			p.m.inc(func(m *pipelineMetrics) *telemetry.Counter { return m.viewsCleared })
			return true
		}
		p.m.inc(func(m *pipelineMetrics) *telemetry.Counter { return m.viewsScanned })
		v, err := p.scan(view.Data, tr)
		if err != nil {
			// A view that fails to scan (oversized after inflation, say)
			// must not fail the whole request; the raw verdict stands.
			p.m.inc(func(m *pipelineMetrics) *telemetry.Counter { return m.decodeErrors })
			return true
		}
		if !v.Malicious {
			return true
		}
		p.m.inc(func(m *pipelineMetrics) *telemetry.Counter { return m.viewHits })
		v.ViewIndex = index
		v.DecodeChain = view.Chain.String()
		v.TriageScore = score
		hit = v
		return false
	})
	return hit
}

// inc bumps one counter, tolerating a nil metrics struct.
func (m *pipelineMetrics) inc(sel func(*pipelineMetrics) *telemetry.Counter) {
	if m == nil {
		return
	}
	sel(m).Inc()
}
