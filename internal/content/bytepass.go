package content

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// The byte pass is the one read of a content buffer. For the triage
// gate, each aligned 256-byte block is counted into a histogram of
// 8-bit bins, which is folded into the buffer's histogram eight bins at
// a time; without a gate (the decoder's own Views) the bytes are counted
// straight into the buffer's histogram. The gate and the decoder's
// layer sniff both read their inputs from these histograms: the global
// entropy and printable ratio and the sniff's byte classes come from the
// buffer histogram, each block's entropy and symbol count from the
// block's. Only the sniff's order-dependent counts ('=' and '%'
// escapes, the first pad) go back to the bytes, through bytes.IndexByte
// scans that run only when the histogram holds the byte they look for;
// the quoted-printable peeler alone looks for an over-long line, and
// only in a buffer it is about to decode.

// bufStats is what the byte pass learns about one buffer.
type bufStats struct {
	// hist is the buffer's byte histogram.
	hist [256]uint32
	// n is the buffer length.
	n int
	// maxBlock and worstJoint are the block screen's outcome: the highest
	// block entropy, and the highest min(entropy/BlockEntropy,
	// symbolRatio/BlockSymbolRatio) over the screened blocks. Both stay
	// zero when the pass ran without a gate.
	maxBlock   float64
	worstJoint float64
}

// Lane masks of the SWAR arithmetic over eight 8-bit bins in a word.
const (
	lanes8Low7 = 0x7f7f7f7f7f7f7f7f
	lanes8High = 0x8080808080808080
	lanes8Ge2  = 0xfefefefefefefefe // the bits a count of 2 or more sets
	lanes16    = 0x00ff00ff00ff00ff
	sum16      = 0x0001000100010001 // × sums the four 16-bit lanes into the top one
	// gatherHigh, times a word holding only lane high bits, packs those
	// eight bits into its top byte, lane k's at bit 56+k.
	gatherHigh = 0x0002040810204081
)

// symbolMask has 0xff in the lane of every punctuation bin (printable
// and neither a letter, a digit nor whitespace), as 32 little-endian
// words over a block histogram.
var symbolMask = func() (m [triageBlock / 8]uint64) {
	for c := range triageBlock {
		if isSymbol(byte(c)) {
			m[c/8] |= 0xff << (8 * (c % 8))
		}
	}
	return m
}()

// isSymbol reports whether c is printable punctuation.
func isSymbol(c byte) bool {
	return c >= 0x21 && c <= 0x7e && !(c >= '0' && c <= '9') &&
		!(c >= 'A' && c <= 'Z') && !(c >= 'a' && c <= 'z')
}

// passStats makes data's one byte pass, gated by gate when it is not
// nil, and returns what the gate and the layer sniff read of it: the
// gate's result (zero without a gate) and the sniff counts. The
// histogram lives in this frame only, so it is off the stack again
// before any MEL pass runs on the caller's.
//
//mel:hotpath
func passStats(data []byte, gate *Triage) (TriageResult, byteStats) {
	var st bufStats
	bytePass(data, gate, &st)
	var res TriageResult
	if gate != nil {
		res = gate.result(&st)
	}
	return res, st.sniffStats(data)
}

// bytePass makes the one pass over data into st. With a gate it counts
// data block by block and screens every block of at least half a block
// against the gate's thresholds; with a nil gate it only counts.
//
//mel:hotpath
func bytePass(data []byte, gate *Triage, st *bufStats) {
	*st = bufStats{n: len(data)}
	if gate == nil {
		countBytes(data, &st.hist)
		return
	}
	var blk [triageBlock]uint8
	for off := 0; off < len(data); off += triageBlock {
		b := data[off:min(off+triageBlock, len(data))]
		countBytes(b, &blk)
		screen := len(b) >= triageBlock/2
		if c := b[0]; blk[c] == 0 {
			// One byte fills the block and its 8-bit count wrapped to
			// zero, as every other bin is. The block's entropy is
			// exactly 0, the value log2(256) − 256·log2(256)/256 the
			// general path gives.
			st.hist[c] += triageBlock
			sym := 0
			if isSymbol(c) {
				sym = triageBlock
			}
			st.screenBlock(gate, nLog2N[triageBlock], sym, triageBlock)
		} else {
			sum, sym := foldBlock(&blk, &st.hist, screen)
			if screen {
				st.screenBlock(gate, sum, sym, len(b))
			}
			blk = [triageBlock]uint8{}
		}
	}
}

// countBytes adds data's bytes into hist. The block counts of a gated
// pass use 8-bit bins, which only a block of one repeated byte wraps.
//
//mel:hotpath
func countBytes[T uint8 | uint32](data []byte, hist *[256]T) {
	i := 0
	for ; i+8 <= len(data); i += 8 {
		x := binary.LittleEndian.Uint64(data[i:])
		hist[uint8(x)]++
		hist[uint8(x>>8)]++
		hist[uint8(x>>16)]++
		hist[uint8(x>>24)]++
		hist[uint8(x>>32)]++
		hist[uint8(x>>40)]++
		hist[uint8(x>>48)]++
		hist[uint8(x>>56)]++
	}
	for _, c := range data[i:] {
		hist[c]++
	}
}

// foldBlock adds a block's histogram into hist, eight bins at a time,
// skipping empty words. With screen it also returns
// Σ c·log2(c) over the block's bins, summed in ascending bin order over
// the bins with c >= 2 — the terms histEntropy adds, in its order, so
// the sum is bit-identical (bins of 0 or 1 add exactly +0.0) — and the
// block's punctuation count. The caller has ruled out a wrapped bin.
//
//mel:hotpath
func foldBlock(blk *[triageBlock]uint8, hist *[256]uint32, screen bool) (sum float64, sym int) {
	var sym16 uint64 // punctuation counts in 16-bit lanes
	// Each group of eight words is folded, then its bins of two or more
	// are summed, so the float chain of one group overlaps the integer
	// work of the next.
	for base := 0; base < triageBlock; base += 64 {
		var ge2 uint64 // bit b: bin base+b holds two or more bytes
		for k := range 8 {
			i := base/8 + k
			w := binary.LittleEndian.Uint64(blk[8*i:])
			if w == 0 {
				continue
			}
			h := hist[8*i : 8*i+8]
			h[0] += uint32(w & 0xff)
			h[1] += uint32(w >> 8 & 0xff)
			h[2] += uint32(w >> 16 & 0xff)
			h[3] += uint32(w >> 24 & 0xff)
			h[4] += uint32(w >> 32 & 0xff)
			h[5] += uint32(w >> 40 & 0xff)
			h[6] += uint32(w >> 48 & 0xff)
			h[7] += uint32(w >> 56)
			if !screen {
				continue
			}
			s := w & symbolMask[i]
			sym16 += s&lanes16 + s>>8&lanes16
			// The high bit of every lane whose count is 2 or more, gathered
			// into one bit per bin.
			g := w & lanes8Ge2
			m := (g&lanes8Low7 + lanes8Low7 | g) & lanes8High
			ge2 |= m * gatherHigh >> 56 << (8 * k)
		}
		for ; ge2 != 0; ge2 &= ge2 - 1 {
			sum += nLog2N[blk[base+bits.TrailingZeros64(ge2)]]
		}
	}
	return sum, int(sym16 * sum16 >> 48)
}

// screenBlock folds one block of fill bytes, whose Σ c·log2(c) is sum
// and whose punctuation count is sym, into the gate's block screen.
//
//mel:hotpath
func (st *bufStats) screenBlock(gate *Triage, sum float64, sym, fill int) {
	h := nLog2N[fill]/float64(fill) - sum/float64(fill)
	if h > st.maxBlock {
		st.maxBlock = h
	}
	joint := h / gate.cfg.BlockEntropy
	if s := float64(sym) / (float64(fill) * gate.cfg.BlockSymbolRatio); s < joint {
		joint = s
	}
	if joint > st.worstJoint {
		st.worstJoint = joint
	}
}

// printable counts the buffer's printable bytes: 0x20..0x7e plus tab,
// CR and LF.
//
//mel:hotpath
func (st *bufStats) printable() int {
	n := int(st.hist['\t']) + int(st.hist['\r']) + int(st.hist['\n'])
	for _, k := range st.hist[0x20:0x7f] {
		n += int(k)
	}
	return n
}

// sniffStats derives the sniff counts of data, whose pass is st.
//
//mel:hotpath
func (st *bufStats) sniffStats(data []byte) byteStats {
	var seen uint16
	for c, k := range &st.hist {
		f := sniffClass[c]
		if k == 0 {
			f = 0
		}
		seen |= f
	}
	leads := 0
	for _, k := range st.hist[0xc0:] {
		leads += int(k)
	}
	s := byteStats{seen: seen, leads: leads, firstPad: -1,
		ws: int(st.hist[' ']) + int(st.hist['\t']) + int(st.hist['\r']) + int(st.hist['\n'])}
	if st.hist['='] != 0 {
		s.firstPad = bytes.IndexByte(data, '=')
		s.qpEsc = countEscapes(data, s.firstPad, true)
	}
	if st.hist['%'] != 0 {
		s.pctEsc = countEscapes(data, bytes.IndexByte(data, '%'), false)
	}
	return s
}

// countEscapes counts the escapes introduced by data[first] and every
// later byte equal to it: "XX" hex pairs, plus "\r\n" soft breaks when
// qp is set. first is -1 when there are none.
//
//mel:hotpath
func countEscapes(data []byte, first int, qp bool) int {
	n := 0
	for i := first; i >= 0; {
		if i+2 < len(data) && ((qp && data[i+1] == '\r' && data[i+2] == '\n') || (isHex(data[i+1]) && isHex(data[i+2]))) {
			n++
		}
		next := bytes.IndexByte(data[i+1:], data[i])
		if next < 0 {
			break
		}
		i += 1 + next
	}
	return n
}

// hasLongLine reports whether some run of non-'\n' bytes in data is
// qpLineMax bytes or longer.
//
//mel:hotpath
func hasLongLine(data []byte) bool {
	for len(data) >= qpLineMax {
		nl := bytes.IndexByte(data[:qpLineMax], '\n')
		if nl < 0 {
			return true
		}
		data = data[nl+1:]
	}
	return false
}
