package mel

import (
	"math/rand"
	"testing"
)

// recordRuleSets are the rule configurations the record compiler folds
// in; they cover tracking on/off, wrong segments, explicit-address
// invalidation, and each invalid-flag class.
func recordRuleSets() map[string]Rules {
	return map[string]Rules{
		"dawn":          DAWN(),
		"dawnStateless": DAWNStateless(),
		"ape":           APE(),
		"empty":         {},
	}
}

// checkRecordsEquiv builds the packed records for stream through the
// backward record builder and requires bit-identity with recFullAt —
// the full x86.DecodeInto-based specification — at every offset. No record may
// be zero: ScanFrom and Trace read a zero record as "not yet decoded".
func checkRecordsEquiv(t *testing.T, e *Engine, stream []byte) {
	t.Helper()
	s := acquireState(e, stream)
	defer releaseState(s)
	s.ensureRecs()
	s.buildRecords(len(stream))
	for off := range stream {
		if s.recs[off] == 0 {
			t.Fatalf("zero record at offset %d (stream %x)", off, stream)
		}
		if got, want := s.recs[off], e.recFullAt(stream, off); got != want {
			t.Fatalf("record mismatch at offset %d (byte %#02x, stream %x): fused %#016x, full %#016x",
				off, stream[off], stream[max(0, off-4):min(len(stream), off+16)], got, want)
		}
	}
}

// TestRecordsExhaustivePairs drives every (first, second) byte pair into
// the fused decoder with three tail patterns, covering prefix chains,
// 0x0F escapes, every ModRM value, and truncation at each position.
func TestRecordsExhaustivePairs(t *testing.T) {
	tails := [][]byte{
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{0x24, 0x65, 0x05, 0x9C, 0x44, 0x8D, 0x14, 0xC5, 0x67, 0x0F, 0xBA, 0x25, 0x90, 0xE8, 0x33, 0x74},
	}
	for name, rules := range recordRuleSets() {
		e := NewEngine(rules)
		t.Run(name, func(t *testing.T) {
			stream := make([]byte, 0, 18)
			for b0 := 0; b0 < 256; b0++ {
				for b1 := 0; b1 < 256; b1++ {
					for _, tail := range tails {
						stream = append(stream[:0], byte(b0), byte(b1))
						stream = append(stream, tail...)
						checkRecordsEquiv(t, e, stream)
					}
				}
			}
		})
	}
}

// TestRecordsRandomStreams compares fused and full records on random
// streams: uniform bytes, printable-text-biased bytes, and short
// truncated suffixes where decode runs off the end.
func TestRecordsRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for name, rules := range recordRuleSets() {
		e := NewEngine(rules)
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 40; round++ {
				n := 1 + rng.Intn(512)
				stream := make([]byte, n)
				switch round % 3 {
				case 0:
					rng.Read(stream)
				case 1:
					for i := range stream {
						stream[i] = byte(0x20 + rng.Intn(0x5F)) // printable ASCII
					}
				default:
					// Prefix- and escape-heavy soup around the fallback forms.
					hot := []byte{0x66, 0x67, 0x0F, 0x2E, 0x64, 0x65, 0x38, 0x3A, 0x8D, 0xFF, 0xF6, 0xF7, 0xE8, 0x74}
					for i := range stream {
						if rng.Intn(2) == 0 {
							stream[i] = hot[rng.Intn(len(hot))]
						} else {
							stream[i] = byte(rng.Intn(256))
						}
					}
				}
				checkRecordsEquiv(t, e, stream)
			}
		})
	}
}

// TestQuickTableCoverage pins how many slots each quick table resolves
// per rule set. A zero slot means "no quick form, use the spec
// decoder", so a fill loop that stops short (say `b < 0xBF`) changes
// no record and escapes every equivalence check; it only sends more
// offsets to the slow path. These counts are that speed property:
// change them only with a deliberate change to what the tables cover.
func TestQuickTableCoverage(t *testing.T) {
	want := map[string][2]int{
		"dawn":          {168, 20821},
		"dawnStateless": {168, 20845},
		"ape":           {168, 20845},
		"empty":         {168, 20845},
	}
	for name, rules := range recordRuleSets() {
		e := NewEngine(rules)
		var got [2]int
		for b0 := range e.quick1 {
			if e.quick1[b0] != 0 {
				got[0]++
			}
			for b1 := range e.quick2[b0] {
				if e.quick2[b0][b1] != 0 {
					got[1]++
				}
			}
		}
		if got != want[name] {
			t.Errorf("%s: non-zero quick1/quick2 slots = %d/%d, want %d/%d",
				name, got[0], got[1], want[name][0], want[name][1])
		}
	}
}
