package content

import "math"

// The triage stage is the cheap gate in front of the MEL pass. One
// pass over the payload computes, per aligned 256-byte block, the byte
// entropy and the punctuation-symbol ratio, plus the global entropy
// and printable ratio. The discriminating signal is the conjunction:
// a printable-x86 decrypter packs random text words around opcode
// punctuation, so its blocks are simultaneously high-entropy (>5.2
// bits/byte) and symbol-dense (>0.27), while benign traffic is one or
// the other — HTML is symbol-dense (~0.30) but low-entropy (~4.6),
// MIME text is higher-entropy (~5.2) but symbol-poor (~0.18). A
// payload clears (skips the MEL pass on those bytes — the pipeline
// still sniffs for decode layers) only when every block sits
// outside the conjunction region and the payload-wide ceilings hold;
// anything ambiguous falls through to pseudo-execution, so a
// miscalibrated threshold costs throughput, never a missed worm.
// Calibration on the repo corpus and all encoder styles shows ≥0.8
// bits / ≥0.04 ratio of two-sided margin (see TestTriageCalibration
// and TestTriageNeverClearsWorms).

// triageBlock is the sub-window of the per-block screen. It is smaller
// than any decrypter the encoder emits, so at least one aligned block
// lands (mostly) inside a spliced worm region.
const triageBlock = 256

// Triage defaults — the calibrated clear thresholds.
const (
	// DefaultTriageMinLen is the shortest payload triage will clear;
	// anything shorter can't amortize the statistics and falls through.
	DefaultTriageMinLen = 128
	// DefaultMaxEntropy is the global bits/byte clear ceiling.
	DefaultMaxEntropy = 5.6
	// DefaultMaxBlockEntropy is the unconditional per-block bits/byte
	// ceiling — the backstop that catches near-uniform printable data
	// (compressed or encrypted content re-encoded as text) regardless of
	// its symbol mix.
	DefaultMaxBlockEntropy = 5.7
	// DefaultMinPrintable is the printable-byte-ratio clear floor.
	DefaultMinPrintable = 0.99
	// DefaultBlockEntropy and DefaultBlockSymbolRatio define the
	// conjunction screen: a block exceeding BOTH marks the payload
	// can't-clear. Benign corpus blocks reach at most (4.6 bits, 0.31)
	// or (5.2 bits, 0.18); worm decrypter blocks sit at ≥(5.2, 0.27).
	DefaultBlockEntropy     = 4.8
	DefaultBlockSymbolRatio = 0.23
)

// TriageConfig holds the clear thresholds. Zero values select the
// calibrated defaults; the conservative direction is always "can't
// clear", so a misconfigured threshold costs throughput, not misses.
type TriageConfig struct {
	// MinLen is the shortest payload that can clear.
	MinLen int
	// MaxEntropy is the global entropy (bits/byte) clear ceiling.
	MaxEntropy float64
	// MaxBlockEntropy is the unconditional per-block entropy ceiling.
	MaxBlockEntropy float64
	// MinPrintable is the printable-ratio clear floor.
	MinPrintable float64
	// BlockEntropy and BlockSymbolRatio are the per-block conjunction
	// screen: a block above both marks the payload can't-clear.
	BlockEntropy     float64
	BlockSymbolRatio float64
}

func (c TriageConfig) withDefaults() TriageConfig {
	if c.MinLen == 0 {
		c.MinLen = DefaultTriageMinLen
	}
	if c.MaxEntropy == 0 {
		c.MaxEntropy = DefaultMaxEntropy
	}
	if c.MaxBlockEntropy == 0 {
		c.MaxBlockEntropy = DefaultMaxBlockEntropy
	}
	if c.MinPrintable == 0 {
		c.MinPrintable = DefaultMinPrintable
	}
	if c.BlockEntropy == 0 {
		c.BlockEntropy = DefaultBlockEntropy
	}
	if c.BlockSymbolRatio == 0 {
		c.BlockSymbolRatio = DefaultBlockSymbolRatio
	}
	return c
}

// TriageResult is the outcome of assessing one payload.
type TriageResult struct {
	// Cleared reports that no signal places a flaggable worm region in
	// the payload and the MEL pass may be skipped.
	Cleared bool
	// Score is the suspicion score in [0,1]: the worst clear-condition
	// margin, normalized so a payload exactly at a threshold scores 0.5.
	// Scores above 0.5 always fail to clear; payloads below 0.5 clear
	// unless they are shorter than MinLen.
	Score float64
	// Entropy is the global byte entropy in bits/byte.
	Entropy float64
	// MaxBlockEntropy is the highest entropy of any aligned 256-byte
	// block (equal to Entropy for payloads shorter than one block).
	MaxBlockEntropy float64
	// PrintableRatio is the fraction of printable bytes (0x20..0x7e plus
	// tab/CR/LF).
	PrintableRatio float64
}

// nLog2N[i] = i·log2(i), the only transcendental the entropy loop
// needs. Sized to cover every count an aligned block can produce and
// the global histogram of typical scan windows; larger counts fall
// back to math.Log2 (at most 256 calls per payload).
var nLog2N [4096 + 1]float64

func init() {
	for i := 2; i < len(nLog2N); i++ {
		nLog2N[i] = float64(i) * math.Log2(float64(i))
	}
}

// Triage is the configured clear gate. It is stateless and safe for
// concurrent use.
type Triage struct {
	cfg TriageConfig
}

// NewTriage returns a gate with cfg's thresholds (zero fields select
// the calibrated defaults).
func NewTriage(cfg TriageConfig) *Triage {
	return &Triage{cfg: cfg.withDefaults()}
}

// Config returns the effective thresholds.
func (t *Triage) Config() TriageConfig { return t.cfg }

// Assess computes the triage statistics for data in one byte pass and
// scores it against the clear thresholds. It allocates nothing: the
// histograms live on the stack and the result is a value.
//
//mel:hotpath
func (t *Triage) Assess(data []byte) TriageResult {
	var st bufStats
	bytePass(data, t, &st)
	return t.result(&st)
}

// result scores a buffer's byte pass, made with t as its gate, against
// the clear thresholds.
//
//mel:hotpath
func (t *Triage) result(st *bufStats) TriageResult {
	n := st.n
	var res TriageResult
	if n == 0 {
		return res
	}
	res.Entropy = histEntropy(&st.hist, n)
	res.MaxBlockEntropy = st.maxBlock
	if n < triageBlock {
		res.MaxBlockEntropy = res.Entropy
	}
	res.PrintableRatio = float64(st.printable()) / float64(n)

	// Score: every clear condition contributes margin/2, so crossing any
	// threshold lands exactly at 0.5 and the max tracks the worst one.
	score := st.worstJoint / 2
	if s := res.Entropy / (2 * t.cfg.MaxEntropy); s > score {
		score = s
	}
	if s := res.MaxBlockEntropy / (2 * t.cfg.MaxBlockEntropy); s > score {
		score = s
	}
	if floor := 1 - t.cfg.MinPrintable; floor > 0 {
		if s := (1 - res.PrintableRatio) / (2 * floor); s > score {
			score = s
		}
	}
	if score > 1 {
		score = 1
	}
	res.Score = score

	res.Cleared = n >= t.cfg.MinLen &&
		res.PrintableRatio >= t.cfg.MinPrintable &&
		res.Entropy <= t.cfg.MaxEntropy &&
		res.MaxBlockEntropy <= t.cfg.MaxBlockEntropy &&
		st.worstJoint <= 1
	return res
}

// histEntropy computes the Shannon entropy (bits/byte) of a histogram
// holding n samples: H = log2(n) − (1/n)·Σ c·log2(c).
//
//mel:hotpath
func histEntropy(hist *[256]uint32, n int) float64 {
	if n <= 1 {
		return 0
	}
	sum := 0.0
	for _, c := range hist {
		if c < 2 {
			continue // 0·log2(0) and 1·log2(1) are both 0
		}
		if int(c) < len(nLog2N) {
			sum += nLog2N[c]
		} else {
			sum += float64(c) * math.Log2(float64(c))
		}
	}
	var logN float64
	if n < len(nLog2N) {
		logN = nLog2N[n] / float64(n)
	} else {
		logN = math.Log2(float64(n))
	}
	return logN - sum/float64(n)
}
