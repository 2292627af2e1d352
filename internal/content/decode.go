package content

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"io"
	"iter"
	"mime/quotedprintable"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Decoder defaults.
const (
	// DefaultMaxDepth is the default recursion bound: at most this many
	// layers are peeled from one payload (gzip inside base64 inside
	// chunked is depth 3).
	DefaultMaxDepth = 4
	// DefaultMaxOutput is the default total decoded-output budget per
	// payload across every view — the zip-bomb guard. A 1 MiB request
	// expanding past 8 MiB of views is cut off with ErrDecodeBudget.
	DefaultMaxOutput = 8 << 20
	// minSniffLen is the shortest payload any sniffer considers: below
	// this, layer detection is noise.
	minSniffLen = 16
	// qpLineMax is the shortest line the stdlib quoted-printable reader
	// cannot decode: its bufio.Reader holds 4096 bytes, and ReadSlice
	// fails with bufio.ErrBufferFull once that many bytes precede the
	// '\n' (or the end of input).
	qpLineMax = 4096
	// maxDeflateRatio bounds how far one deflate byte can expand (a
	// 258-byte match costs at least two bits). It caps the inflate
	// pre-size, so a lying gzip size trailer cannot make a tiny payload
	// reserve the whole budget up front.
	maxDeflateRatio = 1032
)

// DecoderConfig bounds a Decoder. Zero values select the defaults.
type DecoderConfig struct {
	// MaxDepth bounds the decode recursion (1..MaxChainLen); 0 selects
	// DefaultMaxDepth.
	MaxDepth int
	// MaxOutput bounds the total decoded bytes produced for one payload
	// across all views; 0 selects DefaultMaxOutput.
	MaxOutput int64
}

// Decoder peels encoding layers off payloads. It is safe for concurrent
// use. Its only state is a pool of gzip inflaters, reused through
// gzip.Reader.Reset so a gzip layer does not build a fresh ~40 KB flate
// state per payload; Reset reinitializes every field a decode reads, so
// nothing carries from one payload to the next.
type Decoder struct {
	maxDepth  int
	maxOutput int64
	inflaters sync.Pool // *inflater
}

// NewDecoder validates cfg and returns a Decoder.
func NewDecoder(cfg DecoderConfig) (*Decoder, error) {
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = DefaultMaxDepth
	}
	if cfg.MaxDepth < 1 || cfg.MaxDepth > MaxChainLen {
		return nil, errors.New("content: MaxDepth must be in 1..8")
	}
	if cfg.MaxOutput == 0 {
		cfg.MaxOutput = DefaultMaxOutput
	}
	if cfg.MaxOutput < 0 {
		return nil, errors.New("content: MaxOutput must be positive")
	}
	return &Decoder{maxDepth: cfg.MaxDepth, maxOutput: cfg.MaxOutput}, nil
}

// MaxDepth returns the configured recursion bound.
func (d *Decoder) MaxDepth() int { return d.maxDepth }

// Views yields every decoded view of payload, depth-first: each
// sniffed layer is peeled, the decoded bytes are yielded, and the
// result is re-sniffed until maxDepth. The raw payload itself is not
// yielded. The error value is non-nil exactly once, as the final pair,
// when decoding was cut short by the output budget (ErrDecodeBudget);
// views yielded before it are complete and valid.
//
// Each buffer is sniffed from one byte pass (bytePass), and a layer is
// decoded only when its acceptance predicate holds on that pass's
// counts, so a buffer that yields no view — plain text, the common
// case — costs one pass and allocates nothing. Every view's Data is a
// fresh allocation owned by the caller: it stays valid after the loop
// and across later Views calls.
//
// maxDepth overrides the configured depth when in 1..MaxDepth, for
// callers that measure a shallower walk; 0 (or any value outside that
// range) selects the configured depth.
func (d *Decoder) Views(payload []byte, maxDepth int) iter.Seq2[View, error] {
	if maxDepth <= 0 || maxDepth > d.maxDepth {
		maxDepth = d.maxDepth
	}
	return func(yield func(View, error) bool) {
		if len(payload) < minSniffLen {
			return
		}
		_, all := passStats(payload, nil)
		budget := d.maxOutput
		d.walk(payload, all, Chain{}, maxDepth, &budget, nil, func(v View, _ TriageResult, err error) bool {
			return yield(v, err)
		})
	}
}

// walk sniffs data, whose sniff counts are all, peels each layer that
// sniffs positive, yields the view and recurses into it, charging every
// view to the payload's shared budget. It returns false once iteration
// stops. Each view is read by one byte pass, which feeds both its
// nested sniff and, when gate is set, the gate result yielded with it
// (a zero TriageResult without a gate).
func (d *Decoder) walk(data []byte, all byteStats, chain Chain, maxDepth int, budget *int64, gate *Triage, yield func(View, TriageResult, error) bool) bool {
	if chain.Len() >= maxDepth || len(data) < minSniffLen {
		return true
	}
	s := sniff(data, all)
	for k := Kind(1); int(k) < numKinds; k++ {
		out, ok := d.peel(k, data, &s, *budget)
		if !ok {
			continue
		}
		if out == nil {
			// The layer sniffed positive but its decoded output would
			// blow the budget: stop, reporting the typed guard error.
			yield(View{}, TriageResult{}, ErrDecodeBudget)
			return false
		}
		*budget -= int64(len(out))
		next := chain.Push(k)
		var res TriageResult
		var outAll byteStats
		if gate != nil || (next.Len() < maxDepth && len(out) >= minSniffLen) {
			res, outAll = passStats(out, gate)
		}
		if !yield(View{Data: out, Chain: next}, res, nil) {
			return false
		}
		if !d.walk(out, outAll, next, maxDepth, budget, gate, yield) {
			return false
		}
	}
	return true
}

// peel attempts to remove one layer of kind k from data, whose sniff
// is s. The second return is false when the layer did not sniff or
// failed to decode; a (nil, true) return means the layer sniffed
// positive but decoding was stopped by the remaining output budget.
func (d *Decoder) peel(k Kind, data []byte, s *sniffResult, budget int64) ([]byte, bool) {
	switch k {
	case KindChunked:
		return peelChunked(data, budget)
	case KindGzip:
		return d.peelGzip(data, budget)
	case KindBase64:
		if s.cte == cteBase64 {
			return peelBase64(s.body, &s.bodyStats, budget)
		}
		return peelBase64(data, &s.all, budget)
	case KindQuotedPrintable:
		if s.cte == cteQuotedPrintable {
			return peelQuotedPrintable(s.body, &s.bodyStats, true, budget)
		}
		return peelQuotedPrintable(data, &s.all, false, budget)
	case KindPercent:
		return peelPercent(data, &s.all, budget)
	case KindUTF8:
		return peelUTF8(data, &s.all, budget)
	}
	return nil, false
}

// --- the sniff pass ---

// Byte classes of the sniff. A byte's class is the union of the bits
// below; the sniff ORs them over the bins its byte pass found occupied.
const (
	clsWS      uint16 = 1 << iota // space, tab, CR, LF
	clsFold                       // space, tab: base64 folding the stdlib decoder does not skip
	clsUpper                      // 'A'..'Z'
	clsLower                      // 'a'..'z'
	clsStd                        // '+', '/': standard base64 alphabet only
	clsURL                        // '-', '_': URL-safe base64 alphabet only
	clsForeign                    // outside the base64 alphabet, '=' and whitespace
	clsHex                        // hex digit
	clsColon                      // ':': every MIME header line has one
	clsLead    uint16 = 1 << 15   // >= 0xC0, a UTF-8 lead byte
)

// sniffClass maps each byte to its class bits.
var sniffClass = func() (t [256]uint16) {
	for i := range t {
		c := byte(i)
		var f uint16
		switch {
		case c == ' ' || c == '\t':
			f = clsWS | clsFold
		case c == '\r' || c == '\n':
			f = clsWS
		case c >= 'A' && c <= 'Z':
			f = clsUpper
		case c >= 'a' && c <= 'z':
			f = clsLower
		case c >= '0' && c <= '9', c == '=':
		case c == '+' || c == '/':
			f = clsStd
		case c == '-' || c == '_':
			f = clsURL
		default:
			f = clsForeign
		}
		if (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') {
			f |= clsHex
		}
		if c == ':' {
			f |= clsColon
		}
		if c >= 0xC0 {
			f |= clsLead
		}
		t[i] = f
	}
	return t
}()

// byteStats is what the sniff learns about a buffer: every count the
// peelers' acceptance predicates read.
type byteStats struct {
	seen     uint16 // union of the class bits of every byte
	ws       int    // clsWS bytes
	leads    int    // clsLead bytes
	qpEsc    int    // "=XX" hex escapes and "=\r\n" soft breaks
	pctEsc   int    // "%XX" hex escapes
	firstPad int    // offset of the first '=', or -1
}

// cteKind is a Content-Transfer-Encoding a peeler acts on.
type cteKind uint8

const (
	cteNone cteKind = iota
	cteBase64
	cteQuotedPrintable
)

// sniffResult is a buffer's sniff: the counts of the whole buffer and,
// when a MIME header block declares base64 or quoted-printable, the
// body it frames with the body's own counts.
type sniffResult struct {
	all       byteStats
	cte       cteKind
	body      []byte
	bodyStats byteStats
}

// sniff pairs data's sniff counts, all, with a parse of its MIME header
// block, once, for every peeler. A buffer without a ':' has no header
// line to parse; a MIME body gets a byte pass of its own.
//
//mel:hotpath
func sniff(data []byte, all byteStats) sniffResult {
	s := sniffResult{all: all}
	if s.all.seen&clsColon != 0 {
		if body, cte := mimeBody(data); cte != cteNone {
			_, bodyStats := passStats(body, nil)
			s.cte, s.body, s.bodyStats = cte, body, bodyStats
		}
	}
	return s
}

// Separators and the header name mimeBody looks for.
var (
	headerEndCRLF = []byte("\r\n\r\n")
	headerEndLF   = []byte("\n\n")
	cteHeader     = []byte("content-transfer-encoding:")
)

// mimeBody looks for an RFC 822 header block and returns the body and
// the Content-Transfer-Encoding declared by its first such header line,
// or cteNone when the payload is not MIME-framed or declares another
// encoding.
//
//mel:hotpath
func mimeBody(data []byte) (body []byte, cte cteKind) {
	sep := headerEndCRLF
	idx := bytes.Index(data, sep)
	if idx < 0 {
		sep = headerEndLF
		idx = bytes.Index(data, sep)
	}
	if idx < 0 {
		return nil, cteNone
	}
	rest := data[:idx]
	for {
		line, more := rest, false
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			line, rest, more = rest[:nl], rest[nl+1:], true
		}
		line = bytes.TrimSpace(line)
		if len(line) >= len(cteHeader) && bytes.EqualFold(line[:len(cteHeader)], cteHeader) {
			value := bytes.TrimSpace(line[len(cteHeader):])
			switch {
			case lowerEquals(value, "base64"):
				return data[idx+len(sep):], cteBase64
			case lowerEquals(value, "quoted-printable"):
				return data[idx+len(sep):], cteQuotedPrintable
			}
			return nil, cteNone
		}
		if !more {
			return nil, cteNone
		}
	}
}

// lowerEquals reports whether bytes.ToLower(v) equals the ASCII want,
// without building the lowered copy. It maps rune by rune exactly as
// bytes.ToLower does — so "QUOTED-PRİNTABLE", whose U+0130 lowers to
// 'i', matches — and a rune that lowers to a non-ASCII rune (or an
// invalid byte, which lowers to U+FFFD) can never match.
//
//mel:hotpath
func lowerEquals(v []byte, want string) bool {
	j := 0
	for i := 0; i < len(v); j++ {
		r, size := rune(v[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(v[i:])
		}
		if j >= len(want) || unicode.ToLower(r) != rune(want[j]) {
			return false
		}
		i += size
	}
	return j == len(want)
}

// --- chunked transfer encoding ---

// peelChunked parses HTTP/1.1 chunked transfer encoding: a sequence of
// "size-hex[;ext]CRLF data CRLF" chunks ending with a zero-size chunk.
// The whole payload must parse as a chunk stream (trailers after the
// terminal chunk are tolerated), so plain text with a leading hex word
// is not misread as chunked.
func peelChunked(data []byte, budget int64) ([]byte, bool) {
	total, ok := chunkedLen(data)
	if !ok || total == 0 {
		return nil, false
	}
	if total > budget {
		return nil, true
	}
	out := make([]byte, 0, total)
	rest := data
	for {
		size, consumed, _ := chunkHeader(rest)
		rest = rest[consumed:]
		// chunkedLen checked every chunk; the bound restates it for the
		// slice below.
		if size == 0 || size > int64(len(rest)) {
			break
		}
		out = append(out, rest[:size]...)
		rest = rest[size+2:]
	}
	return out, true
}

// chunkedLen validates data as a chunk stream and returns the total
// payload size its chunks carry.
//
//mel:hotpath
func chunkedLen(data []byte) (total int64, ok bool) {
	rest := data
	for {
		size, consumed, ok := chunkHeader(rest)
		if !ok {
			return 0, false
		}
		rest = rest[consumed:]
		if size == 0 {
			return total, true
		}
		if int64(len(rest)) < size+2 {
			return 0, false
		}
		if rest[size] != '\r' || rest[size+1] != '\n' {
			return 0, false
		}
		total += size
		rest = rest[size+2:]
	}
}

// chunkHeader parses one "size-hex[;ext]CRLF" line. ok is false when
// the line is not a well-formed chunk header.
//
//mel:hotpath
func chunkHeader(data []byte) (size int64, consumed int, ok bool) {
	i := 0
	for i < len(data) && i < 8 && isHex(data[i]) {
		size = size<<4 | int64(unhex(data[i]))
		i++
	}
	if i == 0 {
		return 0, 0, false
	}
	// Optional chunk extension up to CRLF.
	for i < len(data) && data[i] == ';' {
		for i < len(data) && data[i] != '\r' {
			i++
		}
	}
	if i+1 >= len(data) || data[i] != '\r' || data[i+1] != '\n' {
		return 0, 0, false
	}
	return size, i + 2, true
}

// --- gzip ---

// gzipMagic is the RFC 1952 header: ID1, ID2, deflate.
var gzipMagic = []byte{0x1f, 0x8b, 0x08}

// inflater is one pooled gzip decode state.
type inflater struct {
	src bytes.Reader
	zr  gzip.Reader
}

// peelGzip inflates a gzip stream (every concatenated member), bounded
// by budget, on a pooled inflater. The output buffer is pre-sized from
// the last member's size trailer (ISIZE), so a single-member payload
// inflates into one allocation; the trailer is attacker-written, so it
// is only a hint, capped by the deflate expansion bound and the budget.
func (d *Decoder) peelGzip(data []byte, budget int64) ([]byte, bool) {
	if !bytes.HasPrefix(data, gzipMagic) {
		return nil, false
	}
	inf, _ := d.inflaters.Get().(*inflater)
	if inf == nil {
		inf = new(inflater)
	}
	inf.src.Reset(data)
	var out []byte
	err := inf.zr.Reset(&inf.src)
	if err == nil {
		hint := int64(binary.LittleEndian.Uint32(data[len(data)-4:]))
		out, err = readBudget(&inf.zr, budget, min(hint, int64(len(data))*maxDeflateRatio))
	}
	inf.src.Reset(nil) // the pool must not pin the payload
	d.inflaters.Put(inf)
	if err != nil {
		if errors.Is(err, ErrDecodeBudget) {
			return nil, true
		}
		return nil, false
	}
	if len(out) == 0 {
		return nil, false
	}
	return out, true
}

// readBudget drains r into memory, failing with ErrDecodeBudget once
// more than budget bytes come out. The buffer starts with room for
// sizeHint bytes plus the byte that detects end of input, and grows (to
// at most budget+1) only when the hint was short. Reads stop at
// budget+1 bytes exactly as io.LimitReader(r, budget+1) stops them, so
// which error wins never depends on the hint.
func readBudget(r io.Reader, budget, sizeHint int64) ([]byte, error) {
	limit := budget + 1
	if limit <= 0 {
		return nil, nil // io.LimitReader reads nothing at a non-positive limit
	}
	buf := make([]byte, 0, min(sizeHint+1, limit))
	for {
		if len(buf) == cap(buf) {
			if int64(len(buf)) >= limit {
				break
			}
			grown := make([]byte, len(buf), min(2*int64(cap(buf))+512, limit))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if int64(len(buf)) > budget {
		return nil, ErrDecodeBudget
	}
	return buf, nil
}

// --- base64 ---

// peelBase64 decodes standard- or URL-alphabet base64 from region,
// classified as st: either the whole payload or, for MIME-framed input,
// the body following a Content-Transfer-Encoding: base64 header block.
// Whitespace (line folding) is tolerated; any other foreign byte
// rejects the sniff so prose is never misread as base64.
func peelBase64(region []byte, st *byteStats, budget int64) ([]byte, bool) {
	if !isBase64(region, st) {
		return nil, false
	}
	alphaURL := st.seen&clsURL != 0
	enc := base64.StdEncoding
	if alphaURL {
		enc = base64.URLEncoding
	}
	if pad := (len(region) - st.ws) % 4; pad != 0 {
		if alphaURL {
			enc = base64.RawURLEncoding
		} else {
			enc = base64.RawStdEncoding
		}
	}
	size := enc.DecodedLen(len(region) - st.ws)
	if int64(size) > budget {
		return nil, true
	}
	// The stdlib decoder skips CR and LF itself, so only space- or
	// tab-folded input needs a compacted copy.
	src := region
	if st.seen&clsFold != 0 {
		src = make([]byte, 0, len(region))
		for _, c := range region {
			if sniffClass[c]&clsWS == 0 {
				src = append(src, c)
			}
		}
	}
	out := make([]byte, size)
	m, err := enc.Decode(out, src)
	if err != nil || m == 0 {
		return nil, false
	}
	return out[:m], true
}

// isBase64 reports whether region, classified as st, is plausibly
// base64: alphabet bytes and whitespace only, padding only at the end,
// at least 24 non-whitespace bytes, one alphabet's specials, and both
// cases — real base64 of real content mixes case; a single-case run is
// a word.
//
//mel:hotpath
func isBase64(region []byte, st *byteStats) bool {
	if st.seen&clsForeign != 0 || len(region)-st.ws < 24 ||
		st.seen&(clsStd|clsURL) == clsStd|clsURL ||
		st.seen&(clsUpper|clsLower) != clsUpper|clsLower {
		return false
	}
	if pad := st.firstPad; pad >= 0 && pad < len(region) {
		for _, c := range region[pad:] {
			if c != '=' && sniffClass[c]&clsWS == 0 {
				return false
			}
		}
	}
	return true
}

// --- quoted-printable ---

// peelQuotedPrintable decodes MIME quoted-printable from body,
// classified as st. It sniffs for either a CTE header declaring it or
// enough "=XX" escapes that the decode changes the bytes.
//
// A body with a line of qpLineMax bytes or more is rejected without
// decoding, when len(body) <= budget: the stdlib reader's line buffer
// always overflows on such a line, and QP output is never longer than
// its input, so the budget cannot trip before the reader fails.
func peelQuotedPrintable(body []byte, st *byteStats, declared bool, budget int64) ([]byte, bool) {
	if !declared && st.qpEsc < 4 {
		return nil, false
	}
	if int64(len(body)) <= budget && hasLongLine(body) {
		return nil, false
	}
	out, err := readBudget(quotedprintable.NewReader(bytes.NewReader(body)), budget, int64(len(body)))
	if err != nil {
		if errors.Is(err, ErrDecodeBudget) {
			return nil, true
		}
		return nil, false
	}
	if len(out) == 0 || bytes.Equal(out, body) {
		return nil, false
	}
	return out, true
}

// isHex reports whether c is a hex digit.
//
//mel:hotpath
func isHex(c byte) bool { return sniffClass[c]&clsHex != 0 }

// --- percent-encoding ---

// peelPercent decodes URL percent-encoding. It requires enough "%XX"
// escapes that the layer is plausibly deliberate; '+' is left alone
// (space-encoding is form-specific and a worm byte is never '+'-coded).
func peelPercent(data []byte, st *byteStats, budget int64) ([]byte, bool) {
	escapes := st.pctEsc
	if escapes < 4 {
		return nil, false
	}
	if int64(len(data)-2*escapes) > budget {
		return nil, true
	}
	out := make([]byte, 0, len(data)-2*escapes)
	for i := 0; i < len(data); {
		if data[i] == '%' && i+2 < len(data) && isHex(data[i+1]) && isHex(data[i+2]) {
			out = append(out, unhex(data[i+1])<<4|unhex(data[i+2]))
			i += 3
			continue
		}
		out = append(out, data[i])
		i++
	}
	return out, true
}

//mel:hotpath
func unhex(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	default:
		return c - 'A' + 10
	}
}

// --- UTF-8 normalization ---

// utf8Sub replaces code points above 0xFF — they encode no byte, and
// the substitute (ASCII SUB) is a chain-breaking non-text byte, so
// normalization can only shorten executable runs it did not decode.
const utf8Sub = 0x1a

// utf8BOM is the byte-order mark peelUTF8 strips.
var utf8BOM = []byte{0xef, 0xbb, 0xbf}

// peelUTF8 folds multi-byte UTF-8 back to raw bytes: each rune at or
// below 0xFF becomes its single byte (the channel an attacker gets by
// UTF-8-expanding high bytes), larger runes become a substitute, and a
// leading BOM is stripped.
func peelUTF8(data []byte, st *byteStats, budget int64) ([]byte, bool) {
	body, multibyte, ok := utf8Layer(data, st)
	if !ok {
		return nil, false
	}
	if int64(len(body)-multibyte) > budget {
		return nil, true
	}
	out := make([]byte, 0, len(body)-multibyte)
	for i := 0; i < len(body); {
		r, size := utf8.DecodeRune(body[i:])
		if r <= 0xff {
			out = append(out, byte(r))
		} else {
			out = append(out, utf8Sub)
		}
		i += size
	}
	return out, true
}

// utf8Layer decides whether data, classified as st, has a UTF-8 layer:
// valid UTF-8 after an optional BOM, with a BOM and at least one
// multi-byte rune or at least 8 of them. It returns the body after the
// BOM and its multi-byte rune count. In valid UTF-8 every multi-byte
// rune starts with exactly one byte >= 0xC0 and no other byte is, so
// the count is the byte pass's lead-byte count, less the BOM's: no
// rune is decoded to reject, and pure ASCII (no lead byte) is rejected
// before utf8.Valid runs.
//
//mel:hotpath
func utf8Layer(data []byte, st *byteStats) (body []byte, multibyte int, ok bool) {
	body, multibyte = data, st.leads
	hadBOM := bytes.HasPrefix(data, utf8BOM)
	if hadBOM {
		body, multibyte = data[len(utf8BOM):], multibyte-1
	}
	if multibyte == 0 || (!hadBOM && multibyte < 8) || !utf8.Valid(body) {
		return nil, 0, false
	}
	return body, multibyte, true
}
