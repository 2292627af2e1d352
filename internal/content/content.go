// Package content is the detector's content-decode front end and
// triage cascade. Real traffic does not arrive as raw scannable bytes:
// HTTP bodies come chunked and gzip'd, mail payloads base64- or
// quoted-printable-wrapped, URLs percent-encoded, and text channels
// UTF-8 expanded — a text worm behind any one of those layers scans
// clean even though the decoded bytes would trip the MEL threshold.
//
// The package has two halves:
//
//   - A decode front end (Decoder): composable peelers for HTTP chunked
//     transfer encoding, gzip, base64 (raw and MIME-framed),
//     quoted-printable, percent-encoding, and UTF-8 normalization, with
//     automatic layer sniffing, bounded recursion depth, and a total
//     output budget (the zip-bomb guard, surfaced as ErrDecodeBudget).
//     Views yields every decoded view of a payload for scanning.
//
//   - A triage cascade (Triage, Pipeline): a cheap single-pass
//     entropy/byte-class/printable-ratio stage that clears windows the
//     MEL pass cannot possibly flag, so pseudo-execution runs only on
//     the views triage cannot clear. The composition is
//     triage → decode → MEL, with per-stage trace spans on the standard
//     16-byte trace ids and per-stage telemetry. Every scan peels to
//     the configured depth, so a verdict depends on the payload alone.
package content

import "errors"

// ErrDecodeBudget reports that peeling a payload was cut short because
// the decoded output would exceed the configured budget — the typed
// zip-bomb guard. Views already yielded remain valid.
var ErrDecodeBudget = errors.New("content: decode output budget exceeded")

// Kind identifies one decodable layer.
type Kind uint8

// Decode layers, in sniff order.
const (
	// KindChunked is HTTP/1.1 chunked transfer encoding.
	KindChunked Kind = iota + 1
	// KindGzip is RFC 1952 gzip framing.
	KindGzip
	// KindBase64 is base64 (standard or URL alphabet, raw or as the
	// body of a MIME part declaring Content-Transfer-Encoding: base64).
	KindBase64
	// KindQuotedPrintable is MIME quoted-printable encoding.
	KindQuotedPrintable
	// KindPercent is URL percent-encoding.
	KindPercent
	// KindUTF8 is UTF-8 normalization: multi-byte runes folded back to
	// the single bytes they encode (code points above 0xFF become a
	// substitute byte), BOM stripped.
	KindUTF8
	numKinds = iota + 1
)

// kindNames index Kind; slot 0 is unused.
var kindNames = [numKinds]string{"", "chunked", "gzip", "base64", "qp", "percent", "utf8"}

// String returns the canonical layer name ("gzip", "base64", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) && k > 0 {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind maps a canonical layer name back to its Kind.
func ParseKind(s string) (Kind, bool) {
	for k := 1; k < numKinds; k++ {
		if kindNames[k] == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// MaxChainLen is the deepest decode chain a view can carry — one entry
// per peeled layer. It matches the largest MaxDepth a Decoder accepts,
// so a Chain never overflows.
const MaxChainLen = 8

// Chain records the layers peeled to reach a view, outermost first. It
// is a fixed-size value type so carrying it through the scan path
// allocates nothing.
type Chain struct {
	kinds [MaxChainLen]Kind
	n     uint8
}

// Push appends one peeled layer and returns the extended chain; at
// capacity the chain is returned unchanged (callers bound depth first).
func (c Chain) Push(k Kind) Chain {
	if int(c.n) < MaxChainLen {
		c.kinds[c.n] = k
		c.n++
	}
	return c
}

// Len returns the number of peeled layers.
func (c Chain) Len() int { return int(c.n) }

// At returns the i-th layer, outermost first.
func (c Chain) At(i int) Kind { return c.kinds[i] }

// String renders the chain as "gzip>base64" (outermost first), empty
// for the raw payload.
func (c Chain) String() string {
	if c.n == 0 {
		return ""
	}
	s := c.kinds[0].String()
	for i := 1; i < int(c.n); i++ {
		s += ">" + c.kinds[i].String()
	}
	return s
}

// ParseChain parses the form String renders. An empty string is the
// empty chain.
func ParseChain(s string) (Chain, error) {
	var c Chain
	if s == "" {
		return c, nil
	}
	start := 0
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != '>' {
			continue
		}
		k, ok := ParseKind(s[start:i])
		if !ok {
			return Chain{}, errors.New("content: unknown layer name " + s[start:i])
		}
		if c.Len() == MaxChainLen {
			return Chain{}, errors.New("content: chain too long")
		}
		c = c.Push(k)
		start = i + 1
	}
	return c, nil
}

// AppendWire appends the chain's compact wire form (length byte, then
// one kind byte per layer) to dst.
func (c Chain) AppendWire(dst []byte) []byte {
	dst = append(dst, c.n)
	for i := 0; i < int(c.n); i++ {
		dst = append(dst, byte(c.kinds[i]))
	}
	return dst
}

// ChainFromWire parses the form AppendWire produces, returning the
// chain and the number of bytes consumed (0 on malformed input).
func ChainFromWire(p []byte) (Chain, int) {
	var c Chain
	if len(p) < 1 {
		return Chain{}, 0
	}
	n := int(p[0])
	if n > MaxChainLen || len(p) < 1+n {
		return Chain{}, 0
	}
	for i := 0; i < n; i++ {
		k := Kind(p[1+i])
		if k == 0 || int(k) >= numKinds {
			return Chain{}, 0
		}
		c = c.Push(k)
	}
	return c, 1 + n
}

// View is one decoded rendering of a payload.
type View struct {
	// Data is the decoded bytes.
	Data []byte
	// Chain is the decode path that produced this view, outermost layer
	// first.
	Chain Chain
}

// Depth returns the number of layers peeled to produce this view.
func (v View) Depth() int { return v.Chain.Len() }
