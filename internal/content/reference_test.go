package content

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"errors"
	"io"
	"iter"
	"mime/quotedprintable"
	"unicode/utf8"
)

// This file is the decoder's differential oracle: the original,
// straightforward peelers — one separate scan per sniffer, a full
// stdlib decode whenever a sniff passes, a fresh inflater per gzip
// member — kept verbatim and test-only. Decoder.Views must yield
// exactly the views referenceViews yields, in the same order, with the
// same chains, bytes and terminal error; FuzzDecodeViews and
// TestViewsMatchReference hold it to that. Do not optimize this file.

// referenceViews is Decoder.Views as the reference peelers compute it,
// bounded by d's configured depth and output budget.
func referenceViews(d *Decoder, payload []byte, maxDepth int) iter.Seq2[View, error] {
	if maxDepth <= 0 || maxDepth > d.maxDepth {
		maxDepth = d.maxDepth
	}
	return func(yield func(View, error) bool) {
		budget := d.maxOutput
		var walk func(data []byte, chain Chain) bool
		walk = func(data []byte, chain Chain) bool {
			if chain.Len() >= maxDepth || len(data) < minSniffLen {
				return true
			}
			for k := Kind(1); int(k) < numKinds; k++ {
				out, ok := refPeel(k, data, budget)
				if !ok {
					continue
				}
				if out == nil {
					yield(View{}, ErrDecodeBudget)
					return false
				}
				budget -= int64(len(out))
				next := chain.Push(k)
				if !yield(View{Data: out, Chain: next}, nil) {
					return false
				}
				if !walk(out, next) {
					return false
				}
			}
			return true
		}
		walk(payload, Chain{})
	}
}

// refPeel attempts to remove one layer of kind k from data. The second
// return is false when the layer did not sniff or failed to decode; a
// (nil, true) return means the layer sniffed positive but decoding was
// stopped by the remaining output budget.
func refPeel(k Kind, data []byte, budget int64) ([]byte, bool) {
	switch k {
	case KindChunked:
		return refPeelChunked(data, budget)
	case KindGzip:
		return refPeelGzip(data, budget)
	case KindBase64:
		return refPeelBase64(data, budget)
	case KindQuotedPrintable:
		return refPeelQuotedPrintable(data, budget)
	case KindPercent:
		return refPeelPercent(data, budget)
	case KindUTF8:
		return refPeelUTF8(data, budget)
	}
	return nil, false
}

// --- chunked transfer encoding ---

// refPeelChunked parses HTTP/1.1 chunked transfer encoding: a sequence of
// "size-hex[;ext]CRLF data CRLF" chunks ending with a zero-size chunk.
// The whole payload must parse as a chunk stream (trailers after the
// terminal chunk are tolerated), so plain text with a leading hex word
// is not misread as chunked.
func refPeelChunked(data []byte, budget int64) ([]byte, bool) {
	rest := data
	var total int64
	// First pass: validate and size.
	for {
		size, consumed, ok := refChunkHeader(rest)
		if !ok {
			return nil, false
		}
		rest = rest[consumed:]
		if size == 0 {
			break
		}
		if int64(len(rest)) < size+2 {
			return nil, false
		}
		if rest[size] != '\r' || rest[size+1] != '\n' {
			return nil, false
		}
		total += size
		rest = rest[size+2:]
	}
	if total == 0 {
		return nil, false
	}
	if total > budget {
		return nil, true
	}
	out := make([]byte, 0, total)
	rest = data
	for {
		size, consumed, _ := refChunkHeader(rest)
		rest = rest[consumed:]
		if size == 0 {
			break
		}
		out = append(out, rest[:size]...)
		rest = rest[size+2:]
	}
	return out, true
}

// refChunkHeader parses one "size-hex[;ext]CRLF" line. ok is false when
// the line is not a well-formed chunk header.
func refChunkHeader(data []byte) (size int64, consumed int, ok bool) {
	i := 0
	for i < len(data) && i < 8 {
		c := data[i]
		var v int64
		switch {
		case c >= '0' && c <= '9':
			v = int64(c - '0')
		case c >= 'a' && c <= 'f':
			v = int64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = int64(c-'A') + 10
		default:
			goto done
		}
		size = size<<4 | v
		i++
	}
done:
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

// refGzipMagic is the RFC 1952 header: ID1, ID2, deflate.
var refGzipMagic = []byte{0x1f, 0x8b, 0x08}

// refPeelGzip inflates a gzip member, bounded by budget.
func refPeelGzip(data []byte, budget int64) ([]byte, bool) {
	if !bytes.HasPrefix(data, refGzipMagic) {
		return nil, false
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, false
	}
	defer zr.Close()
	out, err := refReadBudget(zr, budget)
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

// refReadBudget drains r into memory, failing with ErrDecodeBudget once
// more than budget bytes come out.
func refReadBudget(r io.Reader, budget int64) ([]byte, error) {
	var buf bytes.Buffer
	n, err := io.Copy(&buf, io.LimitReader(r, budget+1))
	if err != nil {
		return nil, err
	}
	if n > budget {
		return nil, ErrDecodeBudget
	}
	return buf.Bytes(), nil
}

// --- base64 ---

// refPeelBase64 decodes standard- or URL-alphabet base64. The candidate
// region is either the whole payload or, for MIME-framed input, the
// body following a Content-Transfer-Encoding: base64 header block.
// Whitespace (line folding) is tolerated; any other foreign byte
// rejects the sniff so prose is never misread as base64.
func refPeelBase64(data []byte, budget int64) ([]byte, bool) {
	body := data
	if b, enc := refMimeBody(data); enc == "base64" {
		body = b
	}
	compact, alphaURL, ok := refCompactBase64(body)
	if !ok {
		return nil, false
	}
	enc := base64.StdEncoding
	if alphaURL {
		enc = base64.URLEncoding
	}
	if pad := len(compact) % 4; pad != 0 {
		if alphaURL {
			enc = base64.RawURLEncoding
		} else {
			enc = base64.RawStdEncoding
		}
	}
	if int64(enc.DecodedLen(len(compact))) > budget {
		return nil, true
	}
	out := make([]byte, enc.DecodedLen(len(compact)))
	n, err := enc.Decode(out, compact)
	if err != nil || n == 0 {
		return nil, false
	}
	return out[:n], true
}

// refCompactBase64 strips ASCII whitespace and reports whether what
// remains is plausibly base64 (all alphabet bytes, padding only at the
// end, long enough to mean anything). alphaURL reports the URL-safe
// alphabet ('-'/'_' instead of '+'/'/'). The validation pass runs
// first so non-base64 input — the common case on the sniff path — is
// rejected without allocating.
func refCompactBase64(data []byte) (compact []byte, alphaURL, ok bool) {
	n := 0
	var upper, lower int
	sawURL, sawStd, done := false, false, false
	for _, c := range data {
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			continue
		case c == '=':
			done = true
		case c >= 'A' && c <= 'Z':
			upper++
		case c >= 'a' && c <= 'z':
			lower++
		case c >= '0' && c <= '9':
		case c == '+' || c == '/':
			sawStd = true
		case c == '-' || c == '_':
			sawURL = true
		default:
			return nil, false, false
		}
		if done && c != '=' {
			return nil, false, false
		}
		n++
	}
	if n < 24 || (sawURL && sawStd) {
		return nil, false, false
	}
	// Reject pure prose that happens to be alphabet-only: real base64 of
	// real content mixes case; a single-case run is a word.
	if upper == 0 || lower == 0 {
		return nil, false, false
	}
	out := make([]byte, 0, n)
	for _, c := range data {
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			continue
		}
		out = append(out, c)
	}
	return out, sawURL, true
}

// refMimeBody looks for an RFC 822 header block and returns the body and
// the declared Content-Transfer-Encoding (lower-cased), or ("", "")
// when the payload is not MIME-framed.
func refMimeBody(data []byte) (body []byte, encoding string) {
	sep := []byte("\r\n\r\n")
	idx := bytes.Index(data, sep)
	if idx < 0 {
		sep = []byte("\n\n")
		idx = bytes.Index(data, sep)
	}
	if idx < 0 {
		return nil, ""
	}
	headers := data[:idx]
	cte := []byte("content-transfer-encoding:")
	for _, line := range bytes.Split(headers, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) < len(cte) {
			continue
		}
		if !bytes.EqualFold(line[:len(cte)], cte) {
			continue
		}
		return data[idx+len(sep):], string(bytes.ToLower(bytes.TrimSpace(line[len(cte):])))
	}
	return nil, ""
}

// --- quoted-printable ---

// refPeelQuotedPrintable decodes MIME quoted-printable. It sniffs for
// either a CTE header declaring it or enough "=XX" escapes that the
// decode changes the bytes.
func refPeelQuotedPrintable(data []byte, budget int64) ([]byte, bool) {
	body := data
	declared := false
	if b, enc := refMimeBody(data); enc == "quoted-printable" {
		body, declared = b, true
	}
	if !declared && refCountQPEscapes(body) < 4 {
		return nil, false
	}
	out, err := refReadBudget(quotedprintable.NewReader(bytes.NewReader(body)), budget)
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

// refCountQPEscapes counts well-formed "=XX" hex escapes and "=\r\n" soft
// breaks.
func refCountQPEscapes(data []byte) int {
	n := 0
	for i := 0; i+2 < len(data); i++ {
		if data[i] != '=' {
			continue
		}
		if data[i+1] == '\r' && data[i+2] == '\n' {
			n++
			continue
		}
		if refIsHex(data[i+1]) && refIsHex(data[i+2]) {
			n++
		}
	}
	return n
}

func refIsHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// --- percent-encoding ---

// refPeelPercent decodes URL percent-encoding. It requires enough "%XX"
// escapes that the layer is plausibly deliberate; '+' is left alone
// (space-encoding is form-specific and a worm byte is never '+'-coded).
func refPeelPercent(data []byte, budget int64) ([]byte, bool) {
	escapes := 0
	for i := 0; i+2 < len(data); i++ {
		if data[i] == '%' && refIsHex(data[i+1]) && refIsHex(data[i+2]) {
			escapes++
		}
	}
	if escapes < 4 {
		return nil, false
	}
	if int64(len(data)) > budget+2*int64(escapes) {
		return nil, true
	}
	out := make([]byte, 0, len(data)-2*escapes)
	for i := 0; i < len(data); {
		if data[i] == '%' && i+2 < len(data) && refIsHex(data[i+1]) && refIsHex(data[i+2]) {
			out = append(out, refUnhex(data[i+1])<<4|refUnhex(data[i+2]))
			i += 3
			continue
		}
		out = append(out, data[i])
		i++
	}
	return out, true
}

func refUnhex(c byte) byte {
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

// refUtf8Sub replaces code points above 0xFF — they encode no byte, and
// the substitute (ASCII SUB) is a chain-breaking non-text byte, so
// normalization can only shorten executable runs it did not decode.
const refUtf8Sub = 0x1a

// refPeelUTF8 folds multi-byte UTF-8 back to raw bytes: each rune at or
// below 0xFF becomes its single byte (the channel an attacker gets by
// UTF-8-expanding high bytes), larger runes become a substitute, and a
// leading BOM is stripped. Pure ASCII input has no layer to refPeel.
func refPeelUTF8(data []byte, budget int64) ([]byte, bool) {
	body := bytes.TrimPrefix(data, []byte{0xef, 0xbb, 0xbf})
	hadBOM := len(body) != len(data)
	if !utf8.Valid(body) {
		return nil, false
	}
	multibyte := 0
	for i := 0; i < len(body); {
		_, size := utf8.DecodeRune(body[i:])
		if size > 1 {
			multibyte++
		}
		i += size
	}
	if multibyte == 0 || (!hadBOM && multibyte < 8) {
		return nil, false
	}
	if int64(len(body)) > budget+int64(multibyte) {
		return nil, true
	}
	out := make([]byte, 0, len(body))
	for i := 0; i < len(body); {
		r, size := utf8.DecodeRune(body[i:])
		if r <= 0xff {
			out = append(out, byte(r))
		} else {
			out = append(out, refUtf8Sub)
		}
		i += size
	}
	return out, true
}
