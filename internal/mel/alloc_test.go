package mel

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/corpus"
)

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// allocInputs returns 4 KB inputs of the four classes whose offsets
// reach the spec decoder in different shares: plain corpus text, its
// base64 and gzip wraps, and uniform random bytes.
func allocInputs(t *testing.T) map[string][]byte {
	t.Helper()
	const size = 4096
	cases, err := corpus.Dataset(201, 8, size)
	if err != nil {
		t.Fatal(err)
	}
	var src []byte
	for _, c := range cases {
		src = append(src, c.Data...)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	random := make([]byte, size)
	rand.New(rand.NewSource(201)).Read(random)
	in := map[string][]byte{
		"text":   src,
		"base64": []byte(base64.StdEncoding.EncodeToString(src)),
		"gzip":   gz.Bytes(),
		"random": random,
	}
	for name, b := range in {
		if len(b) < size {
			t.Fatalf("%s input is %d bytes, want at least %d", name, len(b), size)
		}
		in[name] = b[:size]
	}
	return in
}

// TestScanAllocFree pins Engine.Scan at zero allocations per scan once
// its pooled state is warm, under every rule set and both modes, on
// inputs that send offsets to every record source, the spec decoder
// included.
func TestScanAllocFree(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops pooled scan states at random under the race detector")
	}
	inputs := allocInputs(t)
	for rn, rules := range recordRuleSets() {
		for mn, mode := range diffModes() {
			e := NewEngineMode(rules, mode)
			for in, b := range inputs {
				allocs := testing.AllocsPerRun(10, func() {
					if _, err := e.Scan(b); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s/%s/%s: %.2f allocs per Scan, want 0", rn, mn, in, allocs)
				}
			}
		}
	}
}
