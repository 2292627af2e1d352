package content

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry/tracing"
)

// viewStep is one pair a Views iteration yielded.
type viewStep struct {
	data  []byte
	chain string
	err   error
}

// steps drains a views sequence into comparable steps.
func steps(seq func(func(View, error) bool)) []viewStep {
	var out []viewStep
	for v, err := range seq {
		out = append(out, viewStep{data: v.Data, chain: v.Chain.String(), err: err})
	}
	return out
}

// viewData lists the bytes of every view among steps.
func viewData(steps []viewStep) [][]byte {
	var out [][]byte
	for _, s := range steps {
		if s.err == nil {
			out = append(out, s.data)
		}
	}
	return out
}

// diffSteps describes the first difference between two step sequences,
// or returns "" when they are identical: same chains, same bytes, same
// terminal error, in the same order.
func diffSteps(got, want []viewStep) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return "missing step " + strconv.Itoa(i) + " (" + want[i].chain + ")"
		case i >= len(want):
			return "extra step " + strconv.Itoa(i) + " (" + got[i].chain + ")"
		case got[i].chain != want[i].chain:
			return "step " + strconv.Itoa(i) + ": chain " + got[i].chain + ", want " + want[i].chain
		case !errors.Is(got[i].err, want[i].err) || (got[i].err == nil) != (want[i].err == nil):
			return "step " + strconv.Itoa(i) + ": terminal error differs"
		case !bytes.Equal(got[i].data, want[i].data):
			return "step " + strconv.Itoa(i) + " (" + got[i].chain + "): view bytes differ"
		}
	}
	return ""
}

// qpLine builds a quoted-printable body holding one line of n bytes
// before its '\n' (counting a CR of a CRLF ending), or, with eol "",
// ending the body unterminated. The line starts with escapes, so the
// undeclared sniff passes.
func qpLine(n int, eol string) []byte {
	head := "=41=42=43=44 "
	line := head + strings.Repeat("x", n-len(head)-strings.Count(eol, "\r"))
	if eol == "" {
		return []byte("short =45=46 line\n" + line)
	}
	return []byte(line + eol + "tail =45=46 text" + eol)
}

// decoderEdgeSeeds are the inputs on the edges of the decoder's exact
// rejects and pooled state; FuzzDecodeViews and TestViewsMatchReference
// both run them.
func decoderEdgeSeeds() map[string][]byte {
	seeds := map[string][]byte{
		"qp_eof_equals": []byte("=41=42=43=44 soft break at the very end="),
		"bom_only":      {0xef, 0xbb, 0xbf},
		"bom_ascii":     append([]byte{0xef, 0xbb, 0xbf}, "plain ascii after a byte-order mark"...),
		"bom_one_rune":  append([]byte{0xef, 0xbb, 0xbf}, "one folded rune: \xc3\xa9 and ascii"...),
		"c0_c1_leads":   []byte(strings.Repeat("\xc0\x80\xc1\xbf text ", 8)),
		"overlong":      []byte(strings.Repeat("\xe0\x80\x80\xf0\x80\x80\x80 x ", 8)),
		"seven_runes":   []byte(strings.Repeat("\xc3\xa9", 7) + " only seven multi-byte runes"),
		"eight_runes":   []byte(strings.Repeat("\xc3\xa9", 8) + " exactly eight multi-byte runes"),
		"two_members":   append(EncodeGzip([]byte("first gzip member, plain text")), EncodeGzip([]byte("second member"))...),
		"b64_space_fold": func() []byte {
			b := EncodeBase64(samplePayload())
			return bytes.ReplaceAll(b, []byte("\r\n"), []byte(" \t"))
		}(),
		"b64_crlf_fold": EncodeBase64(samplePayload()),
		"b64_lf_fold":   bytes.ReplaceAll(EncodeBase64(samplePayload()), []byte("\r\n"), []byte("\n")),
		"b64_pad_fold":  []byte("QUJDREVGR0hJSktMTU5PUFFSU1RVVldYWVphYmNkZQ=\r\n=\r\n"),
		"b64_pad_mid":   []byte("QUJDREVGR0hJSktMTU5PUFFS=U1RVVldYWVphYmNkZQ"),
		"b64_url":       []byte("QUJD-_EVGR0hJSktMTU5PUFFSU1RVVldYWVphYmNkZQ"),
		"b64_clash":     []byte("QUJD-+EVGR0hJSktMTU5PUFFSU1RVVldYWVphYmNkZQ"),
		"mime_base64":   EncodeMIMEBase64(samplePayload()),
		"mime_qp": func() []byte {
			b, _ := EncodeQuotedPrintable(samplePayload())
			return b
		}(),
		"mime_qp_plain":    []byte("MIME-Version: 1.0\r\nContent-Transfer-Encoding: Quoted-Printable\r\n\r\nplain body, nothing escaped\r\n"),
		"mime_qp_dotted_i": []byte("MIME-Version: 1.0\r\nContent-Transfer-Encoding: QUOTED-PRİNTABLE\r\n\r\n=41=42 caf=E9\r\n"),
		"mime_b64_lf":      []byte("Content-Transfer-Encoding:  base64 \n\nQUJDREVGR0hJSktMTU5PUFFSU1RVVldYWVphYmNkZQ==\n"),
		"mime_7bit_first":  []byte("Content-Transfer-Encoding: 7bit\r\ncontent-transfer-encoding: base64\r\n\r\nQUJDREVGR0hJSktMTU5PUFFSU1RVVldYWVphYmNkZQ==\r\n"),
		"qp_bad_after_eq":  []byte("=41=42=43=44 bad soft break =\rx"),
		"percent_edge":     []byte("%41%42%43%4 %44 and a trailing %4"),
		"chunked_ext":      []byte("5;name=value\r\nhello\r\n0\r\n\r\n"),
	}
	for _, n := range []int{4095, 4096, 4097} {
		for eol, name := range map[string]string{"\n": "lf", "\r\n": "crlf", "": "none"} {
			seeds["qp_line_"+strconv.Itoa(n)+"_"+name] = qpLine(n, eol)
		}
	}
	// A corrupt member (bad CRC) followed by a valid one.
	bad := EncodeGzip([]byte("this member's checksum is wrong"))
	bad[len(bad)-8] ^= 0xff
	seeds["corrupt_then_valid"] = append(bad, EncodeGzip([]byte("a valid member after it"))...)
	return seeds
}

// FuzzDecodeViews drives the decoder with arbitrary payloads and
// bounds. Views must yield exactly what referenceViews — the original
// peelers, kept as a test-only oracle — yields: the same chains, the
// same bytes and the same terminal error, in the same order, on a first
// call and again on a second call through the same Decoder, whose
// pooled inflater the first call left behind. On the payload and on
// every view, the byte pass must match its oracles: Triage.Assess equal
// to assessReference and the sniff counts equal to classifyReference's. It must also never
// panic, every yielded view must respect the depth bound and carry a
// well-formed chain, total decoded output must stay within the budget,
// and the only error it may surface is the typed budget guard — once,
// as the final pair. A Pipeline over the same bounds must return
// referenceScan's verdict, and ScanTraced the same verdict as Scan: the
// verdict depends on the payload alone, not on tracing.
func FuzzDecodeViews(f *testing.F) {
	f.Add([]byte("GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n"), 4, int64(1<<16))
	f.Add(EncodeGzip([]byte("TYQX----hAAAA^h@@@@_!q !y 1A padding padding")), 4, int64(1<<16))
	f.Add(EncodeBase64(EncodeGzip(bytes.Repeat([]byte("worm?"), 64))), 2, int64(1<<10))
	f.Add(EncodeChunked([]byte("4\r\nnest\r\n0\r\n\r\n"), 8), 8, int64(64))
	f.Add(EncodeMIMEBase64(bytes.Repeat([]byte{0x90}, 128)), 3, int64(256))
	f.Add(EncodePercent([]byte("%41%42 mixed \xff bytes")), 1, int64(1<<20))
	f.Add(ExpandUTF8(bytes.Repeat([]byte{0xCD, 0x80}, 40)), 4, int64(0))
	// A gzip bomb seed: tiny wire bytes, large decoded output.
	f.Add(EncodeGzip(make([]byte, 1<<20)), 4, int64(1<<10))
	edges := decoderEdgeSeeds()
	maps.Copy(edges, bytePassEdgeSeeds())
	for _, name := range slices.Sorted(maps.Keys(edges)) {
		f.Add(edges[name], 4, int64(1<<20))
		f.Add(edges[name], 2, int64(4000))
	}
	tri := NewTriage(TriageConfig{})
	det, err := core.New()
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte, maxDepth int, budget int64) {
		// Fold the fuzzed bounds into the decoder's accepted ranges; the
		// rejects have their own constructor tests.
		if maxDepth < 0 {
			maxDepth = -maxDepth
		}
		maxDepth = maxDepth%MaxChainLen + 1
		if budget < 0 {
			budget = -budget
		}
		budget = budget%(1<<20) + 1
		bounds := DecoderConfig{MaxDepth: maxDepth, MaxOutput: budget}
		dec, err := NewDecoder(bounds)
		if err != nil {
			t.Fatalf("config rejected after folding: %v", err)
		}

		want := steps(referenceViews(dec, data, 0))
		for call := 1; call <= 2; call++ {
			if d := diffSteps(steps(dec.Views(data, 0)), want); d != "" {
				t.Fatalf("call %d: Views differs from referenceViews: %s", call, d)
			}
		}
		// The byte pass must reproduce both oracles on the payload and
		// on every view the decoder peeled from it.
		for i, buf := range append([][]byte{data}, viewData(want)...) {
			if got, ref := tri.Assess(buf), assessReference(tri, buf); got != ref {
				t.Fatalf("buffer %d: Assess = %+v, assessReference %+v", i, got, ref)
			}
			if d := diffSniff(tri, buf); d != "" {
				t.Fatalf("buffer %d: %s", i, d)
			}
		}

		var total int64
		sawErr := false
		for view, verr := range dec.Views(data, 0) {
			if sawErr {
				t.Fatal("iteration continued past the terminal error pair")
			}
			if verr != nil {
				if !errors.Is(verr, ErrDecodeBudget) {
					t.Fatalf("unexpected error kind: %v", verr)
				}
				if view.Data != nil || view.Chain.Len() != 0 {
					t.Fatalf("error pair carries a view: %+v", view)
				}
				sawErr = true
				continue
			}
			d := view.Depth()
			if d < 1 || d > maxDepth {
				t.Fatalf("view depth %d outside 1..%d", d, maxDepth)
			}
			for i := 0; i < view.Chain.Len(); i++ {
				if k := view.Chain.At(i); k < 1 || int(k) >= numKinds {
					t.Fatalf("chain layer %d is invalid kind %d", i, k)
				}
			}
			total += int64(len(view.Data))
			if total > budget {
				t.Fatalf("yielded %d decoded bytes, budget %d", total, budget)
			}
		}

		pipe, err := NewPipeline(det.ScanTraced, PipelineConfig{Decoder: bounds})
		if err != nil {
			t.Fatal(err)
		}
		got, gerr := pipe.Scan(data)
		ref, rerr := referenceScan(pipe, data)
		if fmt.Sprint(gerr) != fmt.Sprint(rerr) || got != ref {
			t.Fatalf("Scan = (%+v, %v), referenceScan (%+v, %v)", got, gerr, ref, rerr)
		}
		traced, terr := pipe.ScanTraced(data, tracing.New(tracing.TraceID{}, len(data)))
		if fmt.Sprint(terr) != fmt.Sprint(gerr) || traced != got {
			t.Fatalf("ScanTraced = (%+v, %v), Scan (%+v, %v)", traced, terr, got, gerr)
		}
	})
}
