package store

import (
	"bytes"
	"testing"
)

// FuzzOpen feeds arbitrary bytes to the entry verifier and checks its
// contracts: it never panics; whatever it accepts reseals to the exact
// bytes it was given (the footer is canonical); and changing any single
// byte of a sealed entry is always rejected.  The seed corpus is in
// testdata/fuzz/FuzzOpen.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, pos uint, delta byte) {
		if payload, err := Open(data); err == nil && !bytes.Equal(Seal(payload), data) {
			t.Fatalf("Open accepted %q, which does not reseal to itself", data)
		}
		sealed := Seal(data)
		payload, err := Open(sealed)
		if err != nil || !bytes.Equal(payload, data) {
			t.Fatalf("Open(Seal(%q)) = %q, %v", data, payload, err)
		}
		if delta == 0 {
			return
		}
		sealed[pos%uint(len(sealed))] ^= delta
		if _, err := Open(sealed); err == nil {
			t.Fatalf("Open accepted a sealed entry with byte %d changed by %#x", pos%uint(len(sealed)), delta)
		}
	})
}
