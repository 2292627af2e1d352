// Package core assembles the paper's deployable artifact: a text-malware
// detector whose MEL threshold is derived automatically from character
// frequencies and a user-chosen false-positive bound α — "easily
// deployable, signature-free, requires no parameter tuning, has user-
// configurable detection sensitivity" (Section 7).
//
// The detector is calibrated once, from a pre-set character-frequency
// table or a benign training sample (Section 5.2 allows either), and
// then scans payloads: estimate n from the payload size, take p from the
// calibration, derive τ(α, n, p), measure the payload's MEL by
// pseudo-execution, and flag it if MEL > τ.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/mel"
	"repro/internal/melmodel"
	"repro/internal/telemetry/tracing"
	"repro/internal/textins"
)

// Configuration errors.
var (
	ErrBadAlpha      = errors.New("core: alpha must be in (0, 1)")
	ErrNotCalibrated = errors.New("core: detector not calibrated")
	ErrEmptyPayload  = errors.New("core: empty payload")
)

// Detector is a MEL-threshold text-malware detector.
type Detector struct {
	alpha    float64
	rules    mel.Rules
	mode     mel.Mode
	engine   *mel.Engine
	freq     [256]float64
	perInput bool
	ready    bool

	// calib holds the frequency-dependent model parameters, computed once
	// per calibration. It is nil when the table is unsuitable (the error
	// then surfaces on Scan, exactly as the uncached path reported it) and
	// unused under per-input calibration.
	calib *melmodel.Calibration
	// tauCache memoizes (Params, τ) by payload length: stream windows are
	// all the same size, so threshold derivation is paid once per size.
	tauMu    sync.RWMutex
	tauCache map[int]tauEntry

	// observer, when set, receives per-scan telemetry (see SetObserver).
	observer observerPtr
}

// tauEntry is one cached threshold derivation.
type tauEntry struct {
	params melmodel.Params
	tau    float64
}

// tauCacheLimit bounds the threshold cache; beyond this many distinct
// payload sizes, further derivations are computed but not stored.
const tauCacheLimit = 4096

// Option configures a Detector.
type Option func(*Detector) error

// WithAlpha sets the false-positive bound α (default 0.01, the paper's
// setting).
func WithAlpha(alpha float64) Option {
	return func(d *Detector) error {
		if alpha <= 0 || alpha >= 1 {
			return ErrBadAlpha
		}
		d.alpha = alpha
		return nil
	}
}

// WithRules overrides the invalidity rules (default: the full DAWN set).
func WithRules(rules mel.Rules) Option {
	return func(d *Detector) error {
		d.rules = rules
		return nil
	}
}

// WithMode overrides the scan mode (default: sequential, the
// model-faithful measurement).
func WithMode(mode mel.Mode) Option {
	return func(d *Detector) error {
		d.mode = mode
		return nil
	}
}

// WithPresetFrequencies calibrates from a pre-set character table, e.g.
// corpus.EnglishFreq().
func WithPresetFrequencies(freq [256]float64) Option {
	return func(d *Detector) error {
		d.freq = freq
		d.ready = true
		return nil
	}
}

// WithPerInputCalibration estimates p from each scanned payload's own
// character frequencies (the paper's "linear sweep of the input
// character stream" fallback). Note that this hands the attacker control
// over p: a worm built from characters that the rules never invalidate
// drives its own threshold up. Prefer preset or training calibration for
// adversarial settings.
func WithPerInputCalibration() Option {
	return func(d *Detector) error {
		d.perInput = true
		d.ready = true
		return nil
	}
}

// New builds a detector. Without a calibration option it defaults to the
// English-prose preset table.
func New(opts ...Option) (*Detector, error) {
	d := &Detector{
		alpha: 0.01,
		rules: mel.DAWN(),
		mode:  mel.ModeSequential,
	}
	for _, opt := range opts {
		if err := opt(d); err != nil {
			return nil, err
		}
	}
	if !d.ready {
		d.freq = corpus.EnglishFreq()
		d.ready = true
	}
	d.engine = mel.NewEngineMode(d.rules, d.mode)
	d.recalibrate()
	return d, nil
}

// recalibrate rebuilds the cached frequency-dependent parameters and
// clears the threshold cache. A table NewCalibration rejects leaves
// calib nil; Scan then reports the error through the uncached path.
func (d *Detector) recalibrate() {
	d.calib = nil
	if !d.perInput {
		if cal, err := melmodel.NewCalibration(d.freq); err == nil {
			d.calib = cal
		}
	}
	d.tauMu.Lock()
	d.tauCache = nil
	d.tauMu.Unlock()
}

// threshold returns the model parameters and τ for a payload of n bytes,
// from the cache when possible.
func (d *Detector) threshold(n int) (melmodel.Params, float64, error) {
	d.tauMu.RLock()
	e, ok := d.tauCache[n]
	d.tauMu.RUnlock()
	if ok {
		return e.params, e.tau, nil
	}
	params, err := d.calib.Params(n)
	if err != nil {
		return melmodel.Params{}, 0, fmt.Errorf("scan: estimate parameters: %w", err)
	}
	tau, err := melmodel.Threshold(d.alpha, params.N, params.P)
	if err != nil {
		return melmodel.Params{}, 0, fmt.Errorf("scan: derive threshold: %w", err)
	}
	d.tauMu.Lock()
	if d.tauCache == nil {
		d.tauCache = make(map[int]tauEntry)
	}
	if len(d.tauCache) < tauCacheLimit {
		d.tauCache[n] = tauEntry{params: params, tau: tau}
	}
	d.tauMu.Unlock()
	return params, tau, nil
}

// Calibrate sets the frequency table from a benign training sample.
func (d *Detector) Calibrate(training []byte) error {
	freq, err := corpus.Frequencies(training)
	if err != nil {
		return fmt.Errorf("calibrate: %w", err)
	}
	d.freq = freq
	d.perInput = false
	d.ready = true
	d.recalibrate()
	return nil
}

// Alpha returns the configured false-positive bound.
func (d *Detector) Alpha() float64 { return d.alpha }

// Verdict is the result of scanning one payload.
type Verdict struct {
	// Malicious is true when MEL exceeds the derived threshold.
	Malicious bool
	// MEL is the measured maximum executable length.
	MEL int
	// Threshold is the derived τ for this payload's size.
	Threshold float64
	// Params are the model parameters used for the threshold.
	Params melmodel.Params
	// TextOnly reports whether the payload is pure keyboard-enterable
	// text (the channel the detector is designed for).
	TextOnly bool
	// BestStart is the offset where the longest path begins.
	BestStart int
	// TraceID identifies the per-scan trace this verdict was served
	// under, zero when the scan was untraced. The scan pool sets it when
	// it joins the verdict to its trace (the detector and the content
	// pipeline never do), and a traced wire response carries it back to
	// the client. It flows with the verdict through the stream scanner
	// and proxy so alerts can be chased back to a flight-recorder entry.
	TraceID tracing.TraceID

	// Content-pipeline fields, populated only when the scan ran through
	// the content pipeline (internal/content); zero otherwise.
	//
	// ViewIndex is the decoded view this verdict came from: 0 for the
	// raw payload, i>0 for the i-th view the decoder yielded.
	ViewIndex int
	// DecodeChain names the decode layers peeled to reach that view,
	// outermost first ("gzip>base64"); empty for the raw payload.
	DecodeChain string
	// TriageScore is the triage stage's suspicion score for the raw
	// payload, in [0,1].
	TriageScore float64
	// TriageCleared reports that the triage stage cleared the payload
	// without invoking the MEL pass (MEL, Params, and BestStart are then
	// zero).
	TriageCleared bool
}

// Scan analyzes one payload.
func (d *Detector) Scan(payload []byte) (Verdict, error) {
	return d.ScanTraced(payload, nil)
}

// ScanTraced is Scan with per-stage instrumentation: threshold
// derivation, the engine's decode pass, and the DP are timed onto tr.
// tr is used for stage timing only; the verdict is not written on it.
// Scan is exactly ScanTraced(payload, nil).
func (d *Detector) ScanTraced(payload []byte, tr *tracing.Trace) (Verdict, error) {
	if d == nil || d.engine == nil {
		return Verdict{}, ErrNotCalibrated
	}
	if obs := d.observer.Load(); obs != nil {
		start := time.Now()
		v, err := d.scan(payload, tr)
		(*obs)(ScanStats{Bytes: len(payload), Elapsed: time.Since(start), Verdict: v, Err: err})
		return v, err
	}
	return d.scan(payload, tr)
}

// scan is the scan body: threshold derivation, the engine's MEL
// measurement, and verdict assembly. tr may be nil (untraced).
func (d *Detector) scan(payload []byte, tr *tracing.Trace) (Verdict, error) {
	if len(payload) == 0 {
		return Verdict{}, ErrEmptyPayload
	}
	var (
		params melmodel.Params
		tau    float64
	)
	tr.StageStart(tracing.StageThreshold)
	if !d.perInput && d.calib != nil {
		p, t, err := d.threshold(len(payload))
		if err != nil {
			return Verdict{}, err
		}
		params, tau = p, t
	} else {
		freq := d.freq
		if d.perInput {
			f, err := corpus.Frequencies(payload)
			if err != nil {
				return Verdict{}, fmt.Errorf("scan: %w", err)
			}
			freq = f
		}
		p, err := melmodel.Estimate(freq, len(payload))
		if err != nil {
			return Verdict{}, fmt.Errorf("scan: estimate parameters: %w", err)
		}
		t, err := melmodel.Threshold(d.alpha, p.N, p.P)
		if err != nil {
			return Verdict{}, fmt.Errorf("scan: derive threshold: %w", err)
		}
		params, tau = p, t
	}
	textOnly := textins.IsTextStream(payload)
	tr.StageEnd(tracing.StageThreshold)
	res, err := d.engine.ScanTraced(payload, tr)
	if err != nil {
		return Verdict{}, fmt.Errorf("scan: %w", err)
	}
	return Verdict{
		Malicious: float64(res.MEL) > tau,
		MEL:       res.MEL,
		Threshold: tau,
		Params:    params,
		TextOnly:  textOnly,
		BestStart: res.BestStart,
	}, nil
}

// ScanAll scans a batch and returns the verdicts in input order. It is
// the single-worker form of ScanBatch, sharing its pooled scan state and
// error wrapping.
func (d *Detector) ScanAll(payloads [][]byte) ([]Verdict, error) {
	if len(payloads) == 0 {
		return []Verdict{}, nil
	}
	return d.ScanBatch(context.Background(), payloads, 1)
}

// Evaluation summarizes detection quality over labelled batches.
type Evaluation struct {
	TruePositives  int
	FalsePositives int
	TrueNegatives  int
	FalseNegatives int
}

// FalsePositiveRate returns FP / (FP + TN), or 0 when undefined.
func (e Evaluation) FalsePositiveRate() float64 {
	if e.FalsePositives+e.TrueNegatives == 0 {
		return 0
	}
	return float64(e.FalsePositives) / float64(e.FalsePositives+e.TrueNegatives)
}

// FalseNegativeRate returns FN / (FN + TP), or 0 when undefined.
func (e Evaluation) FalseNegativeRate() float64 {
	if e.FalseNegatives+e.TruePositives == 0 {
		return 0
	}
	return float64(e.FalseNegatives) / float64(e.FalseNegatives+e.TruePositives)
}

// Evaluate scans benign and malicious batches and tabulates the
// confusion counts — the Section 5.3 experiment shape.
func (d *Detector) Evaluate(benign, malicious [][]byte) (Evaluation, error) {
	var ev Evaluation
	for i, p := range benign {
		v, err := d.Scan(p)
		if err != nil {
			return ev, fmt.Errorf("benign %d: %w", i, err)
		}
		if v.Malicious {
			ev.FalsePositives++
		} else {
			ev.TrueNegatives++
		}
	}
	for i, p := range malicious {
		v, err := d.Scan(p)
		if err != nil {
			return ev, fmt.Errorf("malicious %d: %w", i, err)
		}
		if v.Malicious {
			ev.TruePositives++
		} else {
			ev.FalseNegatives++
		}
	}
	return ev, nil
}
