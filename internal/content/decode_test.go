package content

import (
	"bytes"
	"errors"
	"maps"
	"slices"
	"testing"

	"repro/internal/corpus"
)

func mustDecoder(t *testing.T, cfg DecoderConfig) *Decoder {
	t.Helper()
	d, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// samplePayload is realistic-looking text long enough for every sniffer
// to engage, with a high byte so UTF-8 expansion has something to widen.
func samplePayload() []byte {
	var buf bytes.Buffer
	for i := 0; i < 40; i++ {
		buf.WriteString("GET /index.html HTTP/1.1 host example com q=\x80\x01\x02 ")
	}
	return buf.Bytes()
}

// collect drains a Views iterator into views and the terminal error.
func collect(d *Decoder, payload []byte) (views []View, err error) {
	for v, e := range d.Views(payload, 0) {
		if e != nil {
			return views, e
		}
		views = append(views, v)
	}
	return views, nil
}

func TestViewsRoundTripSingleLayer(t *testing.T) {
	d := mustDecoder(t, DecoderConfig{})
	payload := samplePayload()
	for k := Kind(1); int(k) < numKinds; k++ {
		enc, err := Encode(k, payload)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		views, err := collect(d, enc)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		found := false
		for _, v := range views {
			if v.Chain.Len() == 1 && v.Chain.At(0) == k {
				found = true
				if !bytes.Equal(v.Data, payload) {
					t.Errorf("%v: decoded view differs from original", k)
				}
			}
		}
		if !found {
			t.Errorf("%v: no depth-1 view of that kind; got %d views", k, len(views))
		}
	}
}

func TestViewsNestedLayers(t *testing.T) {
	d := mustDecoder(t, DecoderConfig{})
	payload := samplePayload()
	chain, err := ParseChain("chunked>gzip>base64")
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeChain(chain, payload)
	if err != nil {
		t.Fatal(err)
	}
	views, err := collect(d, enc)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range views {
		if v.Chain.String() == "chunked>gzip>base64" {
			found = true
			if !bytes.Equal(v.Data, payload) {
				t.Error("triple-wrapped view differs from original")
			}
		}
	}
	if !found {
		var got []string
		for _, v := range views {
			got = append(got, v.Chain.String())
		}
		t.Fatalf("no chunked>gzip>base64 view; chains seen: %v", got)
	}
}

func TestViewsPlainTextYieldsNothing(t *testing.T) {
	d := mustDecoder(t, DecoderConfig{})
	plain := []byte("The quick brown fox jumps over the lazy dog. " +
		"Nothing here is encoded, framed, compressed, or escaped at all.")
	views, err := collect(d, plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 0 {
		var got []string
		for _, v := range views {
			got = append(got, v.Chain.String())
		}
		t.Fatalf("plain text produced views: %v", got)
	}
}

func TestViewsDepthBound(t *testing.T) {
	d := mustDecoder(t, DecoderConfig{MaxDepth: 2})
	payload := samplePayload()
	chain, _ := ParseChain("gzip>gzip>gzip")
	enc, err := EncodeChain(chain, payload)
	if err != nil {
		t.Fatal(err)
	}
	views, err := collect(d, enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if v.Depth() > 2 {
			t.Fatalf("depth %d view exceeds MaxDepth 2 (%s)", v.Depth(), v.Chain.String())
		}
	}
	// The per-call override can only lower the bound further.
	for v := range d.Views(enc, 1) {
		if v.Depth() > 1 {
			t.Fatalf("depth %d view exceeds override depth 1", v.Depth())
		}
	}
}

func TestViewsBudgetGuard(t *testing.T) {
	// A 1 MiB zero run compresses to ~1 KiB; a 4 KiB budget must trip.
	bomb := EncodeGzip(make([]byte, 1<<20))
	d := mustDecoder(t, DecoderConfig{MaxOutput: 4096})
	views, err := collect(d, bomb)
	if !errors.Is(err, ErrDecodeBudget) {
		t.Fatalf("err = %v, want ErrDecodeBudget", err)
	}
	if len(views) != 0 {
		t.Fatalf("budget-tripped decode still yielded %d views", len(views))
	}
}

func TestViewsBudgetSharedAcrossViews(t *testing.T) {
	payload := samplePayload()
	enc, err := EncodeChain(mustChain(t, "gzip>gzip"), payload)
	if err != nil {
		t.Fatal(err)
	}
	// Budget covers the first inflate (the small inner gzip member) but
	// not the second (the full payload, after the first spent some).
	d := mustDecoder(t, DecoderConfig{MaxOutput: int64(len(payload))})
	views, err := collect(d, enc)
	if !errors.Is(err, ErrDecodeBudget) {
		t.Fatalf("err = %v, want ErrDecodeBudget (views=%d)", err, len(views))
	}
	if len(views) == 0 {
		t.Fatal("expected at least the first view before the budget tripped")
	}
}

func mustChain(t *testing.T, s string) Chain {
	t.Helper()
	c, err := ParseChain(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMIMEBase64Body(t *testing.T) {
	d := mustDecoder(t, DecoderConfig{})
	payload := samplePayload()
	views, err := collect(d, EncodeMIMEBase64(payload))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if v.Chain.Len() == 1 && v.Chain.At(0) == KindBase64 && bytes.Equal(v.Data, payload) {
			return
		}
	}
	t.Fatal("MIME-framed base64 body not decoded")
}

func TestQuotedPrintableRoundTrip(t *testing.T) {
	d := mustDecoder(t, DecoderConfig{})
	payload := []byte("caf\xe9 na\xefve r\xe9sum\xe9 " + string(samplePayload()))
	enc, err := EncodeQuotedPrintable(payload)
	if err != nil {
		t.Fatal(err)
	}
	views, err := collect(d, enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if v.Chain.Len() == 1 && v.Chain.At(0) == KindQuotedPrintable && bytes.Equal(v.Data, payload) {
			return
		}
	}
	t.Fatal("quoted-printable body not decoded")
}

func TestChunkedRejectsPlainHTTP(t *testing.T) {
	d := mustDecoder(t, DecoderConfig{})
	// A body that merely starts with hex digits must not be parsed as
	// chunked framing.
	req := []byte("deadbeef is a classic sentinel value used in debugging and memory analysis")
	for v := range d.Views(req, 0) {
		if v.Chain.Len() > 0 && v.Chain.At(0) == KindChunked {
			t.Fatal("plain text misread as chunked")
		}
	}
}

func TestChainWireRoundTrip(t *testing.T) {
	chains := []string{"", "gzip", "chunked>gzip>base64", "utf8>percent>qp"}
	for _, s := range chains {
		c := mustChain(t, s)
		wire := c.AppendWire(nil)
		got, n := ChainFromWire(wire)
		if n != len(wire) || got != c {
			t.Fatalf("%q: wire round-trip broke (n=%d len=%d)", s, n, len(wire))
		}
		if got.String() != s {
			t.Fatalf("%q: round-tripped to %q", s, got.String())
		}
	}
	if _, n := ChainFromWire([]byte{9, 1, 1, 1, 1, 1, 1, 1, 1, 1}); n != 0 {
		t.Fatal("overlong chain accepted")
	}
	if _, n := ChainFromWire([]byte{1, 0xff}); n != 0 {
		t.Fatal("unknown kind accepted")
	}
}

func TestParseChainErrors(t *testing.T) {
	if _, err := ParseChain("gzip>nope"); err == nil {
		t.Fatal("unknown layer name accepted")
	}
	if _, err := ParseChain("gzip>gzip>gzip>gzip>gzip>gzip>gzip>gzip>gzip"); err == nil {
		t.Fatal("overlong chain accepted")
	}
}

func TestPercentRoundTrip(t *testing.T) {
	d := mustDecoder(t, DecoderConfig{})
	payload := samplePayload()
	views, err := collect(d, EncodePercent(payload))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if v.Chain.Len() == 1 && v.Chain.At(0) == KindPercent && bytes.Equal(v.Data, payload) {
			return
		}
	}
	t.Fatal("percent-encoded body not decoded")
}

func TestUTF8FoldsHighRunes(t *testing.T) {
	d := mustDecoder(t, DecoderConfig{})
	payload := samplePayload()
	views, err := collect(d, ExpandUTF8(payload))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if v.Chain.Len() == 1 && v.Chain.At(0) == KindUTF8 && bytes.Equal(v.Data, payload) {
			return
		}
	}
	t.Fatal("UTF-8 expansion not folded back")
}

func TestNewDecoderValidation(t *testing.T) {
	if _, err := NewDecoder(DecoderConfig{MaxDepth: MaxChainLen + 1}); err == nil {
		t.Fatal("MaxDepth above MaxChainLen accepted")
	}
	if _, err := NewDecoder(DecoderConfig{MaxOutput: -1}); err == nil {
		t.Fatal("negative MaxOutput accepted")
	}
	d := mustDecoder(t, DecoderConfig{})
	if d.MaxDepth() != DefaultMaxDepth {
		t.Fatalf("default MaxDepth = %d", d.MaxDepth())
	}
}

// referenceCorpus is the differential workload: corpus text cases, raw
// and behind every single layer and a few nested chains, plus the
// decoder's edge seeds.
func referenceCorpus(t *testing.T, n int) [][]byte {
	t.Helper()
	cases, err := corpus.Dataset(77, n, 4096)
	if err != nil {
		t.Fatal(err)
	}
	bom := []byte{0xef, 0xbb, 0xbf}
	chains := []Chain{
		mustChain(t, "chunked>gzip>base64"),
		mustChain(t, "gzip>qp"),
		mustChain(t, "base64>gzip"),
	}
	var out [][]byte
	for _, c := range cases {
		out = append(out, c.Data, ExpandUTF8(c.Data), append(append([]byte{}, bom...), ExpandUTF8(c.Data)...))
		for k := Kind(1); int(k) < numKinds; k++ {
			enc, err := Encode(k, c.Data)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, enc)
		}
		for _, ch := range chains {
			enc, err := EncodeChain(ch, c.Data)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, enc)
		}
		qp, err := EncodeQuotedPrintable(EncodeGzip(c.Data))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, qp)
	}
	edges := decoderEdgeSeeds()
	for _, name := range slices.Sorted(maps.Keys(edges)) {
		out = append(out, edges[name])
	}
	return out
}

// TestViewsMatchReference holds Views to the reference peelers on
// corpus traffic: the same views, byte for byte, in the same order,
// under the default bounds, a shallow depth and a tight budget. One
// Decoder serves every payload in turn, so its pooled inflaters see
// each earlier payload's leftovers.
func TestViewsMatchReference(t *testing.T) {
	payloads := referenceCorpus(t, 24)
	for _, cfg := range []DecoderConfig{{}, {MaxDepth: 1}, {MaxOutput: 5000}, {MaxDepth: 8, MaxOutput: 1 << 14}} {
		d := mustDecoder(t, cfg)
		for i, p := range payloads {
			want := steps(referenceViews(d, p, 0))
			if diff := diffSteps(steps(d.Views(p, 0)), want); diff != "" {
				t.Fatalf("cfg %+v payload %d: %s", cfg, i, diff)
			}
		}
	}
}

// TestPooledInflaterNoCarryOver: a corrupt gzip member decoded through
// a Decoder must not change what the same Decoder makes of a valid
// member next — the pooled inflater is reset, not resumed.
func TestPooledInflaterNoCarryOver(t *testing.T) {
	d := mustDecoder(t, DecoderConfig{})
	valid := EncodeGzip(samplePayload())
	corrupt := EncodeGzip(samplePayload())
	corrupt[len(corrupt)/2] ^= 0x55
	truncated := valid[:len(valid)/2]
	for _, p := range [][]byte{corrupt, valid, truncated, valid, corrupt, corrupt, valid} {
		if diff := diffSteps(steps(d.Views(p, 0)), steps(referenceViews(d, p, 0))); diff != "" {
			t.Fatal(diff)
		}
	}
	views, err := collect(d, valid)
	if err != nil || len(views) == 0 || !bytes.Equal(views[0].Data, samplePayload()) {
		t.Fatalf("valid member after corrupt ones: views=%d err=%v", len(views), err)
	}
}

// TestQuotedPrintableLongLineNotPeeled pins a known soundness gap: a
// quoted-printable body with a line of 4096 bytes or more is not
// peeled, because the stdlib reader's 4096-byte line buffer overflows
// on it. A worm QP-encoded on one long line therefore skips the QP
// layer (DESIGN.md §12). The decoder rejects such a body without
// decoding it; a line one byte shorter still decodes.
func TestQuotedPrintableLongLineNotPeeled(t *testing.T) {
	d := mustDecoder(t, DecoderConfig{})
	for _, eol := range []string{"\n", "\r\n", ""} {
		for n, wantQP := range map[int]bool{qpLineMax - 1: true, qpLineMax: false, qpLineMax + 1: false} {
			views, err := collect(d, qpLine(n, eol))
			if err != nil {
				t.Fatal(err)
			}
			gotQP := len(views) > 0 && views[0].Chain.String() == "qp"
			if gotQP != wantQP {
				t.Errorf("line of %d bytes, eol %q: qp view = %v, want %v", n, eol, gotQP, wantQP)
			}
		}
	}
}

// TestViewsPlainTextAllocFree: a buffer that yields no view — plain
// corpus text, the common case — is sniffed without allocating.
func TestViewsPlainTextAllocFree(t *testing.T) {
	d := mustDecoder(t, DecoderConfig{})
	text := hostCase(t, 5)
	allocs := testing.AllocsPerRun(20, func() {
		for range d.Views(text, 0) {
			t.Fatal("plain text yielded a view")
		}
	})
	if allocs != 0 {
		t.Fatalf("plain-text Views: %.1f allocs/op, want 0", allocs)
	}
}
