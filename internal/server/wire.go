// Package server turns the MEL detector into a shared scan daemon: a
// length-prefixed binary wire protocol over TCP, per-connection
// reader/writer goroutines, a bounded worker pool with load shedding,
// a content-hash verdict cache, and a telemetry layer — the deployment
// shape Section 7's "easily deployable at network choke points" claim
// implies once many clients share one detector.
//
// # Wire protocol
//
// Every message is one frame:
//
//	uint32 big-endian body length | body
//
// and every body starts with a fixed header:
//
//	byte  type
//	uint64 big-endian request id
//
// followed by a type-specific payload. A MsgError (0x03) carries
// code(1) | UTF-8 message. Every scan request and every verdict has one
// shape, set by two bits: content routes the scan through the content
// pipeline, traced asks for the server's stage timings. A bracketed
// part is present only when its bit is set:
//
//	request: [trace id(16), traced] | the bytes to scan
//	verdict: flags(1) | MEL uint32 | BestStart uint32 | τ float64 bits |
//	         [view index uint16 | triage score float64 bits |
//	          chain len(1) | chain kinds, content] |
//	         [trace id(16) | total ns uint64 | nStages(1) |
//	          nStages × (stage(1) | dur ns uint64), traced]
//
// The two bits pick the message type:
//
//	content traced  request                     verdict
//	no      no      MsgScan 0x01                MsgVerdict 0x02
//	no      yes     MsgScanTraced 0x04          MsgVerdictTraced 0x05
//	yes     no      MsgScanContent 0x06         MsgVerdictContent 0x08
//	yes     yes     MsgScanContentTraced 0x07   MsgVerdictContentTraced 0x09
//
// Request ids are chosen by the client and echoed verbatim, so one
// connection carries any number of pipelined, out-of-order requests.
//
// Tracing and the content pipeline are version-gated by message type,
// not by mutating existing frames: a client that never sends a traced
// or content request talks to any server, and a server that does not
// know such a type answers it with a MsgError (bad request), which the
// client library treats as "downgrade and retry".
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/telemetry/tracing"
)

// Message types. Scan requests and verdicts come in four types each,
// one per (content, traced) pair; see the package doc for the shapes.
const (
	MsgScan                 byte = 0x01 // scan request
	MsgVerdict              byte = 0x02 // verdict
	MsgError                byte = 0x03 // typed error: code, message
	MsgScanTraced           byte = 0x04 // scan request with a trace id
	MsgVerdictTraced        byte = 0x05 // verdict with the trace echo
	MsgScanContent          byte = 0x06 // scan through the content pipeline
	MsgScanContentTraced    byte = 0x07 // content scan with a trace id
	MsgVerdictContent       byte = 0x08 // verdict with the content extension
	MsgVerdictContentTraced byte = 0x09 // content verdict with the trace echo
)

// Verdict flag bits.
const (
	flagMalicious byte = 1 << 0
	flagTextOnly  byte = 1 << 1
	flagCached    byte = 1 << 2
	// flagTriageCleared (content verdicts only) marks a payload the
	// triage stage cleared without a MEL pass.
	flagTriageCleared byte = 1 << 3
)

// Frame geometry.
const (
	headerLen    = 1 + 8               // type + request id
	verdictLen   = 1 + 4 + 4 + 8       // flags + MEL + BestStart + τ
	traceIDLen   = tracing.IDLen       // trace id field in traced frames
	maxFrameSlop = headerLen + 1 + 256 // header + code + message room

	// verdictMax bounds a verdict payload: the verdict body, the content
	// extension (view index, triage score, decode chain) and the trace
	// echo (id, total, stage count, every defined stage).
	verdictMax = verdictLen + 2 + 8 + 1 + content.MaxChainLen + traceIDLen + 8 + 1 + tracing.NumStages*9
)

// wire framing errors.
var (
	errFrameTooLarge = errors.New("server: frame exceeds negotiated maximum")
	errShortFrame    = errors.New("server: frame shorter than header")
)

// readFrameInto reads one frame body (type, request id, payload) into
// *buf, which is replaced by a fresh slice when the body does not fit;
// the payload aliases *buf. maxBody bounds the accepted body length; a
// larger frame is consumed — header kept, payload discarded without
// buffering — and reported as errFrameTooLarge with the type and
// request id intact, so a server can answer it with a typed error
// instead of dropping the connection, while a hostile peer still cannot
// balloon memory.
func readFrameInto(r io.Reader, maxBody uint32, buf *[]byte) (typ byte, id uint64, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < headerLen {
		return 0, 0, nil, errShortFrame
	}
	if n > maxBody {
		var hdr [headerLen]byte
		if _, err = io.ReadFull(r, hdr[:]); err != nil {
			return 0, 0, nil, err
		}
		if _, err = io.CopyN(io.Discard, r, int64(n)-headerLen); err != nil {
			return 0, 0, nil, err
		}
		return hdr[0], binary.BigEndian.Uint64(hdr[1:9]), nil,
			fmt.Errorf("%w: %d > %d", errFrameTooLarge, n, maxBody)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, 0, nil, err
	}
	return body[0], binary.BigEndian.Uint64(body[1:9]), body[headerLen:], nil
}

// appendFrame appends one framed message to dst and returns the
// extended slice, growing dst at most once — writers frame into a
// reused buffer with no per-message allocation.
func appendFrame(dst []byte, typ byte, id uint64, payload ...[]byte) []byte {
	total := headerLen
	for _, p := range payload {
		total += len(p)
	}
	dst = slices.Grow(dst, 4+total)
	dst = binary.BigEndian.AppendUint32(dst, uint32(total))
	dst = append(dst, typ)
	dst = binary.BigEndian.AppendUint64(dst, id)
	for _, p := range payload {
		dst = append(dst, p...)
	}
	return dst
}

// Scan requests and verdicts each come in four message types, one per
// (content, traced) pair, indexed [content][traced]: the content bit
// routes the scan through the content pipeline and adds the content
// extension to its verdict, the traced bit prefixes the request with a
// trace id and adds the trace echo to its verdict.
var (
	scanTypes    = [2][2]byte{{MsgScan, MsgScanTraced}, {MsgScanContent, MsgScanContentTraced}}
	verdictTypes = [2][2]byte{{MsgVerdict, MsgVerdictTraced}, {MsgVerdictContent, MsgVerdictContentTraced}}
)

// msgType returns the type in types for a (content, traced) scan.
func msgType(types *[2][2]byte, isContent, traced bool) byte {
	c, t := 0, 0
	if isContent {
		c = 1
	}
	if traced {
		t = 1
	}
	return types[c][t]
}

// msgShape is msgType's inverse: the (content, traced) bits of typ, or
// ok false when typ is not one of types.
func msgShape(types *[2][2]byte, typ byte) (isContent, traced, ok bool) {
	for c, row := range types {
		for t, m := range row {
			if m == typ {
				return c == 1, t == 1, true
			}
		}
	}
	return false, false, false
}

// appendVerdict appends the verdict frame for v: the verdict body —
// flags, MEL, BestStart, τ — then the content extension for a content
// scan, then the trace echo when tr is non-nil. Those two bits pick the
// message type.
func appendVerdict(dst []byte, id uint64, v core.Verdict, cached, isContent bool, tr *tracing.Trace) []byte {
	var flags byte
	if v.Malicious {
		flags |= flagMalicious
	}
	if v.TextOnly {
		flags |= flagTextOnly
	}
	if cached {
		flags |= flagCached
	}
	if isContent && v.TriageCleared {
		flags |= flagTriageCleared
	}
	var body [verdictMax]byte
	b := append(body[:0], flags)
	b = binary.BigEndian.AppendUint32(b, uint32(v.MEL))
	b = binary.BigEndian.AppendUint32(b, uint32(v.BestStart))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.Threshold))
	if isContent {
		b = appendContentExt(b, v)
	}
	if tr != nil {
		b = appendTraceEcho(b, tr)
	}
	return appendFrame(dst, msgType(&verdictTypes, isContent, tr != nil), id, b)
}

// DecodeVerdictOf parses the payload of a verdict of message type typ
// — any of the four — into the verdict (content fields included for a
// content type), its cache-hit flag and, for a traced type, the
// server's timing echo, whose id the verdict adopts. It must consume p
// exactly; a non-verdict type is an error.
func DecodeVerdictOf(typ byte, p []byte) (v core.Verdict, cached bool, wt WireTrace, err error) {
	isContent, traced, ok := msgShape(&verdictTypes, typ)
	if !ok {
		return core.Verdict{}, false, WireTrace{}, fmt.Errorf("server: message type 0x%02x is not a verdict", typ)
	}
	if len(p) < verdictLen {
		return core.Verdict{}, false, WireTrace{}, fmt.Errorf("server: verdict payload is %d bytes, want >= %d", len(p), verdictLen)
	}
	flags := p[0]
	v.Malicious = flags&flagMalicious != 0
	v.TextOnly = flags&flagTextOnly != 0
	v.MEL = int(binary.BigEndian.Uint32(p[1:5]))
	v.BestStart = int(binary.BigEndian.Uint32(p[5:9]))
	v.Threshold = math.Float64frombits(binary.BigEndian.Uint64(p[9:17]))
	rest := p[verdictLen:]
	if isContent {
		n, err := decodeContentExt(rest, &v, flags)
		if err != nil {
			return core.Verdict{}, false, WireTrace{}, err
		}
		rest = rest[n:]
	}
	if traced {
		if wt, err = decodeTraceEcho(rest); err != nil {
			return core.Verdict{}, false, WireTrace{}, err
		}
		v.TraceID = wt.ID
		rest = nil
	}
	if len(rest) != 0 {
		return core.Verdict{}, false, WireTrace{}, fmt.Errorf("server: verdict payload has %d trailing bytes", len(rest))
	}
	return v, flags&flagCached != 0, wt, nil
}

// appendTraceEcho appends the trace echo of a traced verdict: trace id,
// server-side total, and every closed stage as (stage, duration ns)
// pairs behind a count byte.
func appendTraceEcho(b []byte, tr *tracing.Trace) []byte {
	b = append(b, tr.ID[:]...)
	b = binary.BigEndian.AppendUint64(b, uint64(tr.Total()))
	nIdx := len(b)
	b = append(b, 0)
	var n byte
	for s := tracing.Stage(0); int(s) < tracing.NumStages; s++ {
		d := tr.StageDur(s)
		if d < 0 {
			continue
		}
		b = append(b, byte(s))
		b = binary.BigEndian.AppendUint64(b, uint64(d))
		n++
	}
	b[nIdx] = n
	return b
}

// decodeTraceEcho parses the tail appendTraceEcho produces. It must
// consume p exactly.
func decodeTraceEcho(p []byte) (wt WireTrace, err error) {
	if len(p) < traceIDLen+8+1 {
		return WireTrace{}, fmt.Errorf("server: trace echo is %d bytes, want >= %d", len(p), traceIDLen+8+1)
	}
	copy(wt.ID[:], p[:traceIDLen])
	wt.Total = time.Duration(binary.BigEndian.Uint64(p[traceIDLen : traceIDLen+8]))
	n := int(p[traceIDLen+8])
	rest := p[traceIDLen+9:]
	if len(rest) != n*9 {
		return WireTrace{}, fmt.Errorf("server: trace echo carries %d stage bytes, want %d", len(rest), n*9)
	}
	for i := range wt.Stages {
		wt.Stages[i] = -1
	}
	for i := 0; i < n; i++ {
		s := rest[i*9]
		d := time.Duration(binary.BigEndian.Uint64(rest[i*9+1 : i*9+9]))
		if int(s) < tracing.NumStages {
			wt.Stages[s] = d
		}
	}
	return wt, nil
}

// appendContentExt appends the content extension: view index, triage
// score, and the decode chain in its compact wire form. A chain string
// that fails to parse (never produced by the pipeline) degrades to the
// empty chain rather than poisoning the frame.
func appendContentExt(b []byte, v core.Verdict) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(v.ViewIndex))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.TriageScore))
	chain, err := content.ParseChain(v.DecodeChain)
	if err != nil {
		chain = content.Chain{}
	}
	return chain.AppendWire(b)
}

// decodeContentExt parses the extension appendContentExt produces,
// filling v's content fields and returning the bytes consumed.
func decodeContentExt(p []byte, v *core.Verdict, flags byte) (int, error) {
	if len(p) < 2+8+1 {
		return 0, fmt.Errorf("server: content extension is %d bytes, want >= %d", len(p), 2+8+1)
	}
	v.ViewIndex = int(binary.BigEndian.Uint16(p[:2]))
	v.TriageScore = math.Float64frombits(binary.BigEndian.Uint64(p[2:10]))
	v.TriageCleared = flags&flagTriageCleared != 0
	chain, n := content.ChainFromWire(p[10:])
	if n == 0 {
		return 0, errors.New("server: malformed decode chain in content verdict")
	}
	v.DecodeChain = chain.String()
	return 10 + n, nil
}

// appendError appends a MsgError frame.
func appendError(dst []byte, id uint64, code byte, msg string) []byte {
	return appendFrame(dst, MsgError, id, []byte{code}, []byte(msg))
}

// WireTrace is the server-side timing echo decoded from a traced
// verdict. Stages the server never closed are -1.
type WireTrace struct {
	// ID is the trace id the request carried (echoed verbatim).
	ID tracing.TraceID
	// Total is the server-side wall time for the request, queue wait
	// included.
	Total time.Duration
	// Stages holds the per-stage durations, indexed by tracing.Stage.
	Stages [tracing.NumStages]time.Duration
}

// Exported wire surface for the client library (and any other peer
// implementation): the same framing the server speaks.

// ReadFrame reads one frame body: type, request id, payload. The
// payload is freshly allocated and safe to retain; maxBody bounds
// accepted frames, as in readFrameInto.
func ReadFrame(r io.Reader, maxBody uint32) (typ byte, id uint64, payload []byte, err error) {
	var buf []byte
	return readFrameInto(r, maxBody, &buf)
}

// AppendRequest appends a scan request frame for payload to dst: a
// content scan when isContent, and a traced one carrying the trace id
// the server should adopt when tid is non-nil.
func AppendRequest(dst []byte, id uint64, isContent bool, tid *tracing.TraceID, payload []byte) []byte {
	typ := msgType(&scanTypes, isContent, tid != nil)
	if tid == nil {
		return appendFrame(dst, typ, id, payload)
	}
	return appendFrame(dst, typ, id, tid[:], payload)
}

// AppendScanRequest appends a MsgScan frame for payload to dst.
func AppendScanRequest(dst []byte, id uint64, payload []byte) []byte {
	return AppendRequest(dst, id, false, nil, payload)
}

// AppendScanContentRequest appends a MsgScanContent frame for payload
// to dst.
func AppendScanContentRequest(dst []byte, id uint64, payload []byte) []byte {
	return AppendRequest(dst, id, true, nil, payload)
}

// DecodeVerdict parses a MsgVerdict payload into the verdict and its
// cache-hit flag.
func DecodeVerdict(p []byte) (v core.Verdict, cached bool, err error) {
	v, cached, _, err = DecodeVerdictOf(MsgVerdict, p)
	return v, cached, err
}

// DecodeVerdictContent parses a MsgVerdictContent payload into the
// verdict (content fields included) and its cache-hit flag.
func DecodeVerdictContent(p []byte) (v core.Verdict, cached bool, err error) {
	v, cached, _, err = DecodeVerdictOf(MsgVerdictContent, p)
	return v, cached, err
}

// DecodeError parses a MsgError payload into its status code and
// message; pair with ErrorForCode.
func DecodeError(p []byte) (code byte, msg string, err error) {
	if len(p) < 1 {
		return 0, "", errors.New("server: empty error payload")
	}
	return p[0], string(p[1:]), nil
}
