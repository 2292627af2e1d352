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
//	byte  type     (MsgScan, MsgVerdict, MsgError)
//	uint64 big-endian request id
//
// followed by a type-specific payload:
//
//	MsgScan:          the raw bytes to scan
//	MsgVerdict:       flags(1) | MEL uint32 | BestStart uint32 | τ float64 bits
//	MsgError:         code(1) | UTF-8 message
//	MsgScanTraced:    trace id(16) | the raw bytes to scan
//	MsgVerdictTraced: MsgVerdict payload | trace id(16) | total ns uint64 |
//	                  nStages(1) | nStages × (stage(1) | dur ns uint64)
//	MsgScanContent:   the raw bytes, scanned through the content pipeline
//	MsgVerdictContent: MsgVerdict payload | view index uint16 |
//	                  triage score float64 bits | chain len(1) | chain kinds
//	MsgScanContentTraced / MsgVerdictContentTraced: the content forms
//	                  with the trace id prefix / trace echo suffix
//
// Request ids are chosen by the client and echoed verbatim, so one
// connection carries any number of pipelined, out-of-order requests.
//
// Tracing is version-gated by message type, not by mutating existing
// frames: a client that never sends MsgScanTraced talks to any server,
// and a pre-tracing server answers MsgScanTraced with a MsgError
// (unknown type), which the client library treats as "downgrade and
// retry untraced".
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/telemetry/tracing"
)

// Message types.
const (
	// MsgScan is a client scan request; the body payload is the bytes to
	// scan.
	MsgScan byte = 0x01
	// MsgVerdict is a successful scan response.
	MsgVerdict byte = 0x02
	// MsgError is a failed scan response carrying a status code.
	MsgError byte = 0x03
	// MsgScanTraced is MsgScan with a leading 16-byte trace id; the
	// server echoes the id and its stage timings in a MsgVerdictTraced.
	MsgScanTraced byte = 0x04
	// MsgVerdictTraced is MsgVerdict extended with the trace id, total
	// server-side duration, and per-stage durations.
	MsgVerdictTraced byte = 0x05
	// MsgScanContent is MsgScan routed through the content pipeline
	// (triage → decode → MEL); answered with MsgVerdictContent. Like
	// tracing, the content path is version-gated by message type: a
	// pre-content server answers with MsgError (unknown type) and the
	// client library downgrades to a plain scan.
	MsgScanContent byte = 0x06
	// MsgScanContentTraced is MsgScanContent with a leading trace id,
	// answered with MsgVerdictContentTraced.
	MsgScanContentTraced byte = 0x07
	// MsgVerdictContent is MsgVerdict extended with the content fields:
	// view index, triage score, and the decode chain.
	MsgVerdictContent byte = 0x08
	// MsgVerdictContentTraced carries the content fields and the trace
	// echo.
	MsgVerdictContentTraced byte = 0x09
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

	// tracedVerdictMax bounds a MsgVerdictTraced payload: verdict, id,
	// total, stage count, and every defined stage.
	tracedVerdictMax = verdictLen + traceIDLen + 8 + 1 + tracing.NumStages*9

	// contentExtMax bounds the content extension: view index, triage
	// score bits, and the decode chain in wire form.
	contentExtMax = 2 + 8 + 1 + content.MaxChainLen
	// contentVerdictMax bounds a MsgVerdictContent payload;
	// tracedContentVerdictMax a MsgVerdictContentTraced one.
	contentVerdictMax       = verdictLen + contentExtMax
	tracedContentVerdictMax = tracedVerdictMax + contentExtMax
)

// wire framing errors.
var (
	errFrameTooLarge = errors.New("server: frame exceeds negotiated maximum")
	errShortFrame    = errors.New("server: frame shorter than header")
)

// readFrame reads one frame body (type, request id, payload). The
// payload slice is freshly allocated and safe to retain. maxBody bounds
// the accepted body length; a larger frame is consumed — header kept,
// payload discarded without buffering — and reported as
// errFrameTooLarge with the type and request id intact, so a server
// can answer it with a typed error instead of dropping the connection,
// while a hostile peer still cannot balloon memory.
func readFrame(r io.Reader, maxBody uint32) (typ byte, id uint64, payload []byte, err error) {
	var buf []byte
	return readFrameInto(r, maxBody, &buf)
}

// readFrameInto is readFrame reading the body into *buf, which is
// replaced by a fresh slice when the body does not fit; the payload
// aliases *buf.
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
// extended slice — writers frame into a reused buffer with no
// per-message allocation.
func appendFrame(dst []byte, typ byte, id uint64, payload ...[]byte) []byte {
	total := headerLen
	for _, p := range payload {
		total += len(p)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(total))
	dst = append(dst, typ)
	dst = binary.BigEndian.AppendUint64(dst, id)
	for _, p := range payload {
		dst = append(dst, p...)
	}
	return dst
}

// appendVerdict appends a MsgVerdict frame for v.
func appendVerdict(dst []byte, id uint64, v core.Verdict, cached bool) []byte {
	var body [verdictLen]byte
	b := appendVerdictBody(body[:0], v, verdictFlags(v, cached))
	return appendFrame(dst, MsgVerdict, id, b)
}

// appendTraceEcho appends the trace tail shared by both traced verdict
// types: trace id, server-side total, and every closed stage as
// (stage, duration ns) pairs behind a count byte.
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

// appendVerdictTraced appends a MsgVerdictTraced frame: the plain
// verdict payload followed by the trace echo.
func appendVerdictTraced(dst []byte, id uint64, v core.Verdict, cached bool, tr *tracing.Trace) []byte {
	var body [tracedVerdictMax]byte
	b := appendVerdictBody(body[:0], v, verdictFlags(v, cached))
	b = appendTraceEcho(b, tr)
	return appendFrame(dst, MsgVerdictTraced, id, b)
}

// verdictFlags packs v's flag bits (content verdicts add the
// triage-cleared bit).
func verdictFlags(v core.Verdict, cached bool) byte {
	var f byte
	if v.Malicious {
		f |= flagMalicious
	}
	if v.TextOnly {
		f |= flagTextOnly
	}
	if cached {
		f |= flagCached
	}
	return f
}

// appendVerdictBody appends the plain verdict fields (no frame, no
// content extension) to b.
func appendVerdictBody(b []byte, v core.Verdict, flags byte) []byte {
	b = append(b, flags)
	b = binary.BigEndian.AppendUint32(b, uint32(v.MEL))
	b = binary.BigEndian.AppendUint32(b, uint32(v.BestStart))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.Threshold))
	return b
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

// appendVerdictContent appends a MsgVerdictContent frame: the plain
// verdict payload followed by the content extension.
func appendVerdictContent(dst []byte, id uint64, v core.Verdict, cached bool) []byte {
	var body [contentVerdictMax]byte
	flags := verdictFlags(v, cached)
	if v.TriageCleared {
		flags |= flagTriageCleared
	}
	b := appendVerdictBody(body[:0], v, flags)
	b = appendContentExt(b, v)
	return appendFrame(dst, MsgVerdictContent, id, b)
}

// decodeVerdictContent parses a MsgVerdictContent payload.
func decodeVerdictContent(p []byte) (v core.Verdict, cached bool, err error) {
	if len(p) < verdictLen {
		return core.Verdict{}, false, fmt.Errorf("server: content verdict payload is %d bytes, want >= %d", len(p), verdictLen)
	}
	v, cached, err = decodeVerdict(p[:verdictLen])
	if err != nil {
		return core.Verdict{}, false, err
	}
	n, err := decodeContentExt(p[verdictLen:], &v, p[0])
	if err != nil {
		return core.Verdict{}, false, err
	}
	if verdictLen+n != len(p) {
		return core.Verdict{}, false, fmt.Errorf("server: content verdict payload has %d trailing bytes", len(p)-verdictLen-n)
	}
	return v, cached, nil
}

// appendVerdictContentTraced appends a MsgVerdictContentTraced frame:
// verdict payload, content extension, then the trace echo (id, total,
// closed stages).
func appendVerdictContentTraced(dst []byte, id uint64, v core.Verdict, cached bool, tr *tracing.Trace) []byte {
	var body [tracedContentVerdictMax]byte
	flags := verdictFlags(v, cached)
	if v.TriageCleared {
		flags |= flagTriageCleared
	}
	b := appendVerdictBody(body[:0], v, flags)
	b = appendContentExt(b, v)
	b = appendTraceEcho(b, tr)
	return appendFrame(dst, MsgVerdictContentTraced, id, b)
}

// decodeVerdictContentTraced parses a MsgVerdictContentTraced payload.
func decodeVerdictContentTraced(p []byte) (v core.Verdict, cached bool, wt WireTrace, err error) {
	if len(p) < verdictLen {
		return core.Verdict{}, false, WireTrace{}, fmt.Errorf("server: traced content verdict payload is %d bytes, want >= %d", len(p), verdictLen)
	}
	v, cached, err = decodeVerdict(p[:verdictLen])
	if err != nil {
		return core.Verdict{}, false, WireTrace{}, err
	}
	n, err := decodeContentExt(p[verdictLen:], &v, p[0])
	if err != nil {
		return core.Verdict{}, false, WireTrace{}, err
	}
	wt, err = decodeTraceEcho(p[verdictLen+n:])
	if err != nil {
		return core.Verdict{}, false, WireTrace{}, err
	}
	v.TraceID = wt.ID
	return v, cached, wt, nil
}

// appendError appends a MsgError frame.
func appendError(dst []byte, id uint64, code byte, msg string) []byte {
	return appendFrame(dst, MsgError, id, []byte{code}, []byte(msg))
}

// decodeVerdict parses a MsgVerdict payload.
func decodeVerdict(p []byte) (v core.Verdict, cached bool, err error) {
	if len(p) != verdictLen {
		return core.Verdict{}, false, fmt.Errorf("server: verdict payload is %d bytes, want %d", len(p), verdictLen)
	}
	v.Malicious = p[0]&flagMalicious != 0
	v.TextOnly = p[0]&flagTextOnly != 0
	v.MEL = int(binary.BigEndian.Uint32(p[1:5]))
	v.BestStart = int(binary.BigEndian.Uint32(p[5:9]))
	v.Threshold = math.Float64frombits(binary.BigEndian.Uint64(p[9:17]))
	return v, p[0]&flagCached != 0, nil
}

// WireTrace is the server-side timing echo decoded from a
// MsgVerdictTraced response. Stages the server never closed are -1.
type WireTrace struct {
	// ID is the trace id the request carried (echoed verbatim).
	ID tracing.TraceID
	// Total is the server-side wall time for the request, queue wait
	// included.
	Total time.Duration
	// Stages holds the per-stage durations, indexed by tracing.Stage.
	Stages [tracing.NumStages]time.Duration
}

// decodeVerdictTraced parses a MsgVerdictTraced payload.
func decodeVerdictTraced(p []byte) (v core.Verdict, cached bool, wt WireTrace, err error) {
	if len(p) < verdictLen {
		return core.Verdict{}, false, WireTrace{}, fmt.Errorf("server: traced verdict payload is %d bytes, want >= %d", len(p), verdictLen)
	}
	v, cached, err = decodeVerdict(p[:verdictLen])
	if err != nil {
		return core.Verdict{}, false, WireTrace{}, err
	}
	wt, err = decodeTraceEcho(p[verdictLen:])
	if err != nil {
		return core.Verdict{}, false, WireTrace{}, err
	}
	v.TraceID = wt.ID
	return v, cached, wt, nil
}

// decodeError parses a MsgError payload into its code and message.
func decodeError(p []byte) (code byte, msg string, err error) {
	if len(p) < 1 {
		return 0, "", errors.New("server: empty error payload")
	}
	return p[0], string(p[1:]), nil
}

// Exported wire surface for the client library (and any other peer
// implementation): the same framing the server speaks.

// ReadFrame reads one frame body: type, request id, payload. The
// payload is freshly allocated; maxBody bounds accepted frames.
func ReadFrame(r io.Reader, maxBody uint32) (typ byte, id uint64, payload []byte, err error) {
	return readFrame(r, maxBody)
}

// AppendScanRequest appends a MsgScan frame for payload to dst.
func AppendScanRequest(dst []byte, id uint64, payload []byte) []byte {
	return appendFrame(dst, MsgScan, id, payload)
}

// AppendScanTracedRequest appends a MsgScanTraced frame: the trace id
// the server should adopt, then the payload.
func AppendScanTracedRequest(dst []byte, id uint64, tid tracing.TraceID, payload []byte) []byte {
	return appendFrame(dst, MsgScanTraced, id, tid[:], payload)
}

// DecodeVerdict parses a MsgVerdict payload into the verdict and its
// cache-hit flag.
func DecodeVerdict(p []byte) (v core.Verdict, cached bool, err error) {
	return decodeVerdict(p)
}

// DecodeVerdictTraced parses a MsgVerdictTraced payload into the
// verdict, its cache-hit flag, and the server's timing echo.
func DecodeVerdictTraced(p []byte) (v core.Verdict, cached bool, wt WireTrace, err error) {
	return decodeVerdictTraced(p)
}

// DecodeError parses a MsgError payload into its status code and
// message; pair with ErrorForCode.
func DecodeError(p []byte) (code byte, msg string, err error) {
	return decodeError(p)
}

// AppendScanContentRequest appends a MsgScanContent frame for payload
// to dst.
func AppendScanContentRequest(dst []byte, id uint64, payload []byte) []byte {
	return appendFrame(dst, MsgScanContent, id, payload)
}

// AppendScanContentTracedRequest appends a MsgScanContentTraced frame:
// the trace id the server should adopt, then the payload.
func AppendScanContentTracedRequest(dst []byte, id uint64, tid tracing.TraceID, payload []byte) []byte {
	return appendFrame(dst, MsgScanContentTraced, id, tid[:], payload)
}

// DecodeVerdictContent parses a MsgVerdictContent payload into the
// verdict (content fields included) and its cache-hit flag.
func DecodeVerdictContent(p []byte) (v core.Verdict, cached bool, err error) {
	return decodeVerdictContent(p)
}

// DecodeVerdictContentTraced parses a MsgVerdictContentTraced payload.
func DecodeVerdictContentTraced(p []byte) (v core.Verdict, cached bool, wt WireTrace, err error) {
	return decodeVerdictContentTraced(p)
}
