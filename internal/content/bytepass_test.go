package content

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/encoder"
	"repro/internal/shellcode"
)

// bytePassEdgeSeeds are the inputs on the edges of the byte pass's
// block arithmetic: a block of one repeated byte (whose count, 256,
// does not fit an 8-bit bin), tails that straddle the half-block screen
// cut, buffers shorter than one block, the empty buffer, a buffer past
// 64 KB, and symbol-dense text whose score the symbol count decides.
func bytePassEdgeSeeds() map[string][]byte {
	text := bytes.Repeat([]byte("The quick brown fox, (jumps) over the lazy dog; 0123456789!\r\n"), 1200)
	seeds := map[string][]byte{
		"empty":          {},
		"one_byte":       {'='},
		"uniform_letter": bytes.Repeat([]byte{'a'}, triageBlock),
		"uniform_symbol": bytes.Repeat([]byte{'!'}, triageBlock),
		"uniform_high":   bytes.Repeat([]byte{0xff}, triageBlock),
		"uniform_mid":    append(append(slices.Clone(text[:triageBlock]), bytes.Repeat([]byte{'%'}, triageBlock)...), text[:300]...),
		"uniform_blocks": bytes.Repeat([]byte{'#'}, 5*triageBlock+200),
		"near_uniform":   append(bytes.Repeat([]byte{'x'}, triageBlock-1), '='),
		"alternating":    bytes.Repeat([]byte("a!"), 3*triageBlock),
		"over_64k":       text[:70000],
	}
	for _, n := range []int{127, 128, 129, 255} {
		seeds["tail_"+strconv.Itoa(n)] = text[:2*triageBlock+n]
		seeds["short_"+strconv.Itoa(n)] = text[:n]
	}
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 70000)
	rng.Read(random)
	seeds["random_over_64k"] = random
	seeds["random_short"] = random[:200]
	const words, symbols = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ", "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"
	dense := make([]byte, 4*triageBlock)
	for i := range dense {
		if rng.Intn(4) == 0 {
			dense[i] = symbols[rng.Intn(len(symbols))]
		} else {
			dense[i] = words[rng.Intn(len(words))]
		}
	}
	seeds["symbol_dense"] = dense
	return seeds
}

// checkBytePass fails t unless the byte pass over data reproduces the
// oracles: tri.Assess equal to assessReference field for field, and the
// sniff counts, derived from a gated and an ungated pass, equal to
// classifyReference's, as is hasLongLine's answer.
func checkBytePass(t *testing.T, tri *Triage, name string, data []byte) {
	t.Helper()
	if got, want := tri.Assess(data), assessReference(tri, data); got != want {
		t.Fatalf("%s (%d bytes): Assess = %+v, reference %+v", name, len(data), got, want)
	}
	if d := diffSniff(tri, data); d != "" {
		t.Fatalf("%s (%d bytes): %s", name, len(data), d)
	}
}

// diffSniff describes how the sniff counts of data, derived from an
// ungated and a gated byte pass, and hasLongLine differ from
// classifyReference, or returns "" when they all agree.
func diffSniff(tri *Triage, data []byte) string {
	want := classifyReference(data)
	if got := hasLongLine(data); got != want.longLine {
		return fmt.Sprintf("hasLongLine = %v, reference %v", got, want.longLine)
	}
	for _, gate := range []*Triage{nil, tri} {
		var st bufStats
		bytePass(data, gate, &st)
		if got := st.sniffStats(data); got != want.byteStats {
			return fmt.Sprintf("gate %v: sniff stats %+v, reference %+v", gate != nil, got, want.byteStats)
		}
	}
	return ""
}

// TestBytePassMatchesReference holds the byte pass to both oracles on
// corpus text and its encodings, worm windows, random bytes and the
// block-arithmetic edge seeds, under the default thresholds and under
// tighter ones.
func TestBytePassMatchesReference(t *testing.T) {
	var inputs [][]byte
	inputs = append(inputs, referenceCorpus(t, 12)...)
	hosts, err := corpus.Dataset(91, 40, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hosts {
		w, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: uint64(i), Style: encoder.Style(i % 4), SledLen: 64})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, wormWindow(h.Data, w.Bytes), w.Bytes)
	}
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 15, 16, 17, 255, 256, 257, 383, 384, 511, 4096, 5000} {
		b := make([]byte, n)
		rng.Read(b)
		inputs = append(inputs, b)
	}
	edges := bytePassEdgeSeeds()
	for _, name := range slices.Sorted(maps.Keys(edges)) {
		inputs = append(inputs, edges[name])
	}
	for _, cfg := range []TriageConfig{{}, {MinLen: 16, BlockEntropy: 3.5, BlockSymbolRatio: 0.05, MinPrintable: 0.5}} {
		tri := NewTriage(cfg)
		for i, in := range inputs {
			checkBytePass(t, tri, "input "+strconv.Itoa(i), in)
		}
	}
}

// referenceScan is Pipeline.Scan as a composition of the oracles:
// assessReference gates the payload and every view, referenceViews
// peels, and the pipeline's own scan function judges.
func referenceScan(p *Pipeline, payload []byte) (core.Verdict, error) {
	res := assessReference(p.triage, payload)
	var raw core.Verdict
	if res.Cleared {
		raw = core.Verdict{TriageScore: res.Score, TriageCleared: true}
	} else {
		var err error
		if raw, err = p.scan(payload, nil); err != nil {
			return raw, err
		}
		raw.ViewIndex, raw.DecodeChain, raw.TriageScore = 0, "", res.Score
		if raw.Malicious {
			return raw, nil
		}
	}
	index := 0
	for view, derr := range referenceViews(p.dec, payload, 0) {
		if derr != nil {
			break
		}
		index++
		if assessReference(p.triage, view.Data).Cleared {
			continue
		}
		v, err := p.scan(view.Data, nil)
		if err != nil || !v.Malicious {
			continue
		}
		v.ViewIndex, v.DecodeChain, v.TriageScore = index, view.Chain.String(), res.Score
		return v, nil
	}
	return raw, nil
}

// TestPipelineMatchesReference: over a mix shaped like the served
// content traffic — corpus cases, 30% wrapped in base64 or gzip, some
// carrying a worm — every pipeline verdict equals the oracle
// composition's.
func TestPipelineMatchesReference(t *testing.T) {
	p, _ := newTestPipeline(t, PipelineConfig{})
	cases, err := corpus.Dataset(201, 120, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(509))
	var mix [][]byte
	malicious, viewHits := 0, 0
	for i, c := range cases {
		data := slices.Clone(c.Data)
		if i%6 == 3 {
			w, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: uint64(i), SledLen: 64})
			if err != nil {
				t.Fatal(err)
			}
			copy(data[(len(data)-len(w.Bytes))/2:], w.Bytes)
		}
		switch r := rng.Intn(20); {
		case r < 3:
			data = EncodeBase64(data)
		case r < 6:
			data = EncodeGzip(data)
		}
		mix = append(mix, data)
	}
	for i, payload := range mix {
		got, gerr := p.Scan(payload)
		want, werr := referenceScan(p, payload)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("payload %d: error %v, reference %v", i, gerr, werr)
		}
		if got != want {
			t.Fatalf("payload %d: verdict %+v, reference %+v", i, got, want)
		}
		if got.Malicious {
			malicious++
			if got.ViewIndex > 0 {
				viewHits++
			}
		}
	}
	if malicious == 0 || viewHits == 0 {
		t.Fatalf("%d payloads flagged, %d in a decoded view; the worms do not exercise both scan paths", malicious, viewHits)
	}
}

// mixedBuffers is the buffer mix the served content traffic makes the
// byte pass read: 4 KB corpus cases, 30% of them wrapped in base64 or
// gzip, and the decoded view of every wrapped one.
func mixedBuffers(tb testing.TB) [][]byte {
	cases, err := corpus.Dataset(201, 200, 4096)
	if err != nil {
		tb.Fatal(err)
	}
	var bufs [][]byte
	for i, c := range cases {
		switch i % 20 {
		case 1, 7, 13:
			bufs = append(bufs, EncodeBase64(c.Data), c.Data)
		case 4, 10, 16:
			bufs = append(bufs, EncodeGzip(c.Data), c.Data)
		default:
			bufs = append(bufs, c.Data)
		}
	}
	return bufs
}

// BenchmarkBytePass times the byte pass — gate result and sniff counts
// — against the two passes it replaced, assessReference plus
// classifyReference, interleaved round by round over the same buffer
// mix so host drift hits both alike. It reports both per-buffer costs
// and their ratio.
func BenchmarkBytePass(b *testing.B) {
	bufs := mixedBuffers(b)
	tri := NewTriage(TriageConfig{})
	var passNs, refNs time.Duration
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for _, buf := range bufs {
			var st bufStats
			bytePass(buf, tri, &st)
			if tri.result(&st).Cleared {
				sink++
			}
			sink += st.sniffStats(buf).ws
		}
		t1 := time.Now()
		for _, buf := range bufs {
			if assessReference(tri, buf).Cleared {
				sink++
			}
			sink += classifyReference(buf).ws
		}
		passNs += t1.Sub(t0)
		refNs += time.Since(t1)
	}
	if sink == 0 {
		b.Fatal("no work observed")
	}
	per := float64(b.N * len(bufs))
	b.ReportMetric(float64(passNs.Nanoseconds())/per, "pass-ns/buf")
	b.ReportMetric(float64(refNs.Nanoseconds())/per, "ref-ns/buf")
	b.ReportMetric(float64(refNs)/float64(passNs), "speedup")
}
