package server

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry/tracing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("GET / HTTP/1.1\r\n")
	buf.Write(AppendScanRequest(nil, 42, payload))

	typ, id, got, err := ReadFrame(&buf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgScan || id != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip = (0x%02x, %d, %q)", typ, id, got)
	}
}

func TestVerdictRoundTrip(t *testing.T) {
	want := core.Verdict{Malicious: true, MEL: 123, BestStart: 456, Threshold: 40.25, TextOnly: true}
	var buf bytes.Buffer
	buf.Write(appendVerdict(nil, 7, want, true, false, nil))

	typ, id, payload, err := ReadFrame(&buf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgVerdict || id != 7 {
		t.Fatalf("frame header = (0x%02x, %d)", typ, id)
	}
	got, cached, err := DecodeVerdict(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("cached flag lost")
	}
	if got.Malicious != want.Malicious || got.MEL != want.MEL ||
		got.BestStart != want.BestStart || got.Threshold != want.Threshold ||
		got.TextOnly != want.TextOnly {
		t.Fatalf("verdict = %+v, want %+v", got, want)
	}
}

func TestErrorRoundTripAllCodes(t *testing.T) {
	wantErrs := []error{
		ErrOverloaded, ErrPayloadTooLarge, ErrDeadlineExceeded,
		ErrShuttingDown, ErrBadRequest, ErrScanFailed, ErrContentDisabled,
	}
	for _, wantErr := range wantErrs {
		var buf bytes.Buffer
		buf.Write(appendError(nil, 9, codeFor(wantErr), wantErr.Error()))
		_, _, payload, err := ReadFrame(&buf, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		code, msg, err := DecodeError(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := ErrorForCode(code, msg); !errors.Is(got, wantErr) {
			t.Fatalf("code %d rehydrated to %v, want %v", code, got, wantErr)
		}
	}
}

// TestContentDisabledRehydration: the content-disabled condition
// shares CodeBadRequest with plain bad requests and is told apart by
// its message. The rehydrated error must match both sentinels —
// ErrContentDisabled so callers can name the condition, ErrBadRequest
// so the client library's downgrade path treats a content-disabled
// server like a pre-content one.
func TestContentDisabledRehydration(t *testing.T) {
	got := ErrorForCode(codeFor(ErrContentDisabled), ErrContentDisabled.Error())
	if !errors.Is(got, ErrContentDisabled) || !errors.Is(got, ErrBadRequest) {
		t.Fatalf("rehydrated %v, want ErrContentDisabled and ErrBadRequest both matchable", got)
	}
	if got := ErrorForCode(CodeBadRequest, "malformed frame"); errors.Is(got, ErrContentDisabled) {
		t.Fatalf("plain bad request rehydrated as content-disabled: %v", got)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(AppendScanRequest(nil, 1, make([]byte, 1000)))
	if _, _, _, err := ReadFrame(&buf, 100); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized frame err = %v", err)
	}
}

func TestReadFrameRejectsShort(t *testing.T) {
	// A frame whose declared body is shorter than the header.
	buf := bytes.NewBuffer([]byte{0, 0, 0, 2, 0x01, 0x00})
	if _, _, _, err := ReadFrame(buf, 1<<20); !errors.Is(err, errShortFrame) {
		t.Fatalf("short frame err = %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	full := AppendScanRequest(nil, 1, []byte("abcdef"))
	for cut := 1; cut < len(full); cut++ {
		_, _, _, err := ReadFrame(bytes.NewReader(full[:cut]), 1<<20)
		if err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
		if cut > 4 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: err = %v, want unexpected EOF", cut, err)
		}
	}
}

// TestCodeForErrorForCodeMutualInverse pins the protocol bijection the
// wireerrors analyzer enforces statically: encoding then decoding
// returns the original code, and decoding then encoding returns the
// original sentinel, over every wire code and every sentinel.
func TestCodeForErrorForCodeMutualInverse(t *testing.T) {
	codes := map[byte]string{
		CodeOverloaded:   "CodeOverloaded",
		CodeTooLarge:     "CodeTooLarge",
		CodeBadRequest:   "CodeBadRequest",
		CodeScanFailed:   "CodeScanFailed",
		CodeDeadline:     "CodeDeadline",
		CodeShuttingDown: "CodeShuttingDown",
	}
	for code, name := range codes {
		err := ErrorForCode(code, "")
		if got := codeFor(err); got != code {
			t.Errorf("codeFor(ErrorForCode(%s)) = %d, want %d", name, got, code)
		}
	}
	sentinels := []error{
		ErrOverloaded, ErrPayloadTooLarge, ErrDeadlineExceeded,
		ErrShuttingDown, ErrBadRequest, ErrScanFailed,
	}
	for _, sentinel := range sentinels {
		if got := ErrorForCode(codeFor(sentinel), ""); !errors.Is(got, sentinel) {
			t.Errorf("ErrorForCode(codeFor(%v)) = %v, want the sentinel back", sentinel, got)
		}
	}
	// The six codes are distinct; a collision would make the maps above
	// lie silently.
	if len(codes) != 6 {
		t.Fatalf("wire codes collide: %d distinct of 6", len(codes))
	}

	// ErrContentDisabled has no code of its own: it shares
	// CodeBadRequest and survives the wire through its message text.
	// The round trip must rehydrate an error that is both the shared
	// sentinel and the specific one, and re-encode to the same code.
	rehydrated := ErrorForCode(codeFor(ErrContentDisabled), ErrContentDisabled.Error())
	if !errors.Is(rehydrated, ErrContentDisabled) {
		t.Errorf("rehydrated error %v lost ErrContentDisabled", rehydrated)
	}
	if !errors.Is(rehydrated, ErrBadRequest) {
		t.Errorf("rehydrated error %v lost ErrBadRequest", rehydrated)
	}
	if got := codeFor(rehydrated); got != CodeBadRequest {
		t.Errorf("codeFor(rehydrated) = %d, want CodeBadRequest", got)
	}

	// The content frame types must keep their assigned points so a
	// pre-content peer classifies them as unknown, not as some other
	// frame it thinks it understands.
	msgTypes := map[byte]string{
		MsgScan:                 "MsgScan",
		MsgVerdict:              "MsgVerdict",
		MsgError:                "MsgError",
		MsgScanTraced:           "MsgScanTraced",
		MsgVerdictTraced:        "MsgVerdictTraced",
		MsgScanContent:          "MsgScanContent",
		MsgScanContentTraced:    "MsgScanContentTraced",
		MsgVerdictContent:       "MsgVerdictContent",
		MsgVerdictContentTraced: "MsgVerdictContentTraced",
	}
	if len(msgTypes) != 9 {
		t.Fatalf("message types collide: %d distinct of 9", len(msgTypes))
	}
	for typ, want := range map[byte]string{
		0x06: "MsgScanContent", 0x07: "MsgScanContentTraced",
		0x08: "MsgVerdictContent", 0x09: "MsgVerdictContentTraced",
	} {
		if got := msgTypes[typ]; got != want {
			t.Errorf("frame type 0x%02x = %s, want %s", typ, got, want)
		}
	}
}

// pinnedTrace is a fixed trace: a set id, three closed stages (queue
// wait, DP, triage) and a total.
func pinnedTrace() *tracing.Trace {
	var tid tracing.TraceID
	for i := range tid {
		tid[i] = byte(0xA0 + i)
	}
	tr := tracing.New(tid, 4096)
	tr.SetStageDur(tracing.StageQueueWait, 1500*time.Nanosecond)
	tr.SetStageDur(tracing.StageTriage, 300*time.Nanosecond)
	tr.SetStageDur(tracing.StageDP, 90*time.Microsecond)
	tr.SetTotal(150 * time.Microsecond)
	return tr
}

// TestWireFramesPinned pins every scan request type, every verdict type
// and an error frame byte for byte, so a change to the codec cannot
// change what goes on the wire unnoticed.
func TestWireFramesPinned(t *testing.T) {
	tr := pinnedTrace()
	payload := []byte("\x90\x90\xC3")
	plain := core.Verdict{Malicious: true, TextOnly: true, MEL: 123, BestStart: 77, Threshold: 104.5}
	cont := core.Verdict{
		Malicious: true, MEL: 87, BestStart: 1024, Threshold: 43.7,
		ViewIndex: 2, DecodeChain: "gzip>base64", TriageScore: 0.91, TriageCleared: true,
	}
	for _, c := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"MsgScan", AppendScanRequest(nil, 1, payload),
			"0000000c0100000000000000019090c3"},
		{"MsgScanTraced", AppendRequest(nil, 2, false, &tr.ID, payload),
			"0000001c040000000000000002a0a1a2a3a4a5a6a7a8a9aaabacadaeaf9090c3"},
		{"MsgScanContent", AppendScanContentRequest(nil, 3, payload),
			"0000000c0600000000000000039090c3"},
		{"MsgScanContentTraced", AppendRequest(nil, 4, true, &tr.ID, payload),
			"0000001c070000000000000004a0a1a2a3a4a5a6a7a8a9aaabacadaeaf9090c3"},
		{"MsgVerdict", appendVerdict(nil, 5, plain, true, false, nil),
			"0000001a020000000000000005070000007b0000004d405a200000000000"},
		{"MsgVerdictTraced", appendVerdict(nil, 6, plain, false, false, tr),
			"0000004e050000000000000006030000007b0000004d405a200000000000" +
				"a0a1a2a3a4a5a6a7a8a9aaabacadaeaf00000000000249f003" +
				"0000000000000005dc040000000000015f9005000000000000012c"},
		{"MsgVerdictContent", appendVerdict(nil, 7, cont, false, true, nil),
			"000000270800000000000000070900000057000004004045d9999999999a" +
				"00023fed1eb851eb851f020203"},
		{"MsgVerdictContentTraced", appendVerdict(nil, 8, cont, true, true, tr),
			"0000005b0900000000000000080d00000057000004004045d9999999999a" +
				"00023fed1eb851eb851f020203" +
				"a0a1a2a3a4a5a6a7a8a9aaabacadaeaf00000000000249f003" +
				"0000000000000005dc040000000000015f9005000000000000012c"},
		{"MsgError", appendError(nil, 9, CodeOverloaded, ErrOverloaded.Error()),
			"0000002a030000000000000009017365727665723a206f7665726c6f616465642c20726571756573742073686564"},
	} {
		if got := hex.EncodeToString(c.frame); got != c.want {
			t.Errorf("%s frame:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
