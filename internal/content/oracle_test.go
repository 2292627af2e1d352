package content

import "math"

// This file is the byte pass's differential oracle: the two per-buffer
// passes the byte pass replaced — the triage gate's per-byte class
// branches with a 256-bin entropy loop per block, and the decoder's
// table-driven sniff — kept verbatim and test-only. Triage.Assess must
// return exactly what assessReference returns (struct ==, so every
// float bit-identical), and the sniff counts derived from the pass must
// equal classifyReference's; FuzzDecodeViews, TestBytePassMatchesReference
// and TestPipelineMatchesReference hold them to that. Do not optimize
// this file. Two mechanical edits only: the class table is filled by
// one full-range loop instead of an init, and the '\n'/'='/'%' mark
// bit classify branched on, which the production class table no longer
// carries, is added here per byte.

// Byte classes of the reference triage pass.
const (
	refClassOther  = 0 // non-printable
	refClassText   = 1 // letters, digits, space, tab, CR, LF
	refClassSymbol = 2 // printable punctuation
)

// refByteClass maps each byte to its triage class; printable ⇔ class != 0.
var refByteClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == ' ', c == '\t', c == '\r', c == '\n':
			t[c] = refClassText
		case c >= 0x21 && c <= 0x7e:
			t[c] = refClassSymbol
		}
	}
	return t
}()

// assessReference is Triage.Assess as the original single pass
// computed it: class branches per byte, a block histogram cleared per
// block, and histEntropy over all 256 bins of every block.
func assessReference(t *Triage, data []byte) TriageResult {
	n := len(data)
	var res TriageResult
	if n == 0 {
		return res
	}
	var global [256]uint32
	var block [256]uint32
	printed := 0
	blockSym := 0
	fill := 0
	maxBlock := 0.0
	worstJoint := 0.0 // max over blocks of min(ent/BlockEntropy, sym/BlockSymbolRatio)
	for _, c := range data {
		global[c]++
		block[c]++
		cl := refByteClass[c]
		if cl != refClassOther {
			printed++
		}
		if cl == refClassSymbol {
			blockSym++
		}
		fill++
		if fill == triageBlock {
			maxBlock, worstJoint = refCloseBlock(t, &block, fill, blockSym, maxBlock, worstJoint)
			block = [256]uint32{}
			blockSym, fill = 0, 0
		}
	}
	// A tail of at least half a block still contributes to the screen;
	// smaller tails carry too little signal either way.
	if fill >= triageBlock/2 {
		maxBlock, worstJoint = refCloseBlock(t, &block, fill, blockSym, maxBlock, worstJoint)
	}
	res.Entropy = refHistEntropy(&global, n)
	res.MaxBlockEntropy = maxBlock
	if n < triageBlock {
		res.MaxBlockEntropy = res.Entropy
	}
	res.PrintableRatio = float64(printed) / float64(n)

	// Score: every clear condition contributes margin/2, so crossing any
	// threshold lands exactly at 0.5 and the max tracks the worst one.
	score := worstJoint / 2
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
		worstJoint <= 1
	return res
}

// refCloseBlock folds one finished block into the running screen state.
func refCloseBlock(t *Triage, block *[256]uint32, fill, sym int, maxBlock, worstJoint float64) (float64, float64) {
	h := refHistEntropy(block, fill)
	if h > maxBlock {
		maxBlock = h
	}
	joint := h / t.cfg.BlockEntropy
	if s := float64(sym) / (float64(fill) * t.cfg.BlockSymbolRatio); s < joint {
		joint = s
	}
	if joint > worstJoint {
		worstJoint = joint
	}
	return maxBlock, worstJoint
}

// refHistEntropy computes the Shannon entropy (bits/byte) of a
// histogram holding n samples: H = log2(n) − (1/n)·Σ c·log2(c).
func refHistEntropy(hist *[256]uint32, n int) float64 {
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

// refMark marks the bytes classifyReference branches on: '\n', '=', '%'.
const refMark uint16 = 1 << 14

// refByteStats is byteStats as classifyReference computed it, with the
// long-line flag the quoted-printable peeler now finds for itself.
type refByteStats struct {
	byteStats
	longLine bool // some run of non-'\n' bytes is qpLineMax or longer
}

// classifyReference is the decoder's original sniff pass: bytes outside
// refMark cost a table load, an OR and two adds; the rest branch.
func classifyReference(data []byte) refByteStats {
	st := refByteStats{byteStats: byteStats{firstPad: -1}}
	var seen uint16
	ws, leads, lineStart := 0, 0, 0
	for i, c := range data {
		f := sniffClass[c]
		if c == '\n' || c == '=' || c == '%' {
			f |= refMark
		}
		seen |= f &^ refMark
		ws += int(f & clsWS)
		leads += int(f >> 15)
		if f&refMark == 0 {
			continue
		}
		switch c {
		case '\n':
			if i-lineStart >= qpLineMax {
				st.longLine = true
			}
			lineStart = i + 1
		case '=':
			if st.firstPad < 0 {
				st.firstPad = i
			}
			if i+2 < len(data) && ((data[i+1] == '\r' && data[i+2] == '\n') || (refIsHex(data[i+1]) && refIsHex(data[i+2]))) {
				st.qpEsc++
			}
		case '%':
			if i+2 < len(data) && refIsHex(data[i+1]) && refIsHex(data[i+2]) {
				st.pctEsc++
			}
		}
	}
	if len(data)-lineStart >= qpLineMax {
		st.longLine = true
	}
	st.seen, st.ws, st.leads = seen, ws, leads
	return st
}
