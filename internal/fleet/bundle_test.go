package fleet

import (
	"encoding/binary"
	"strings"
	"testing"
)

// TestBundleRejectsForgedCounts: a bundle whose embedded addr log declares
// 2^27 entries in a handful of bytes is refused with an error by the
// component decoder, before any map is sized from the forged count.
func TestBundleRejectsForgedCounts(t *testing.T) {
	field := func(b []byte, f []byte) []byte {
		b = binary.AppendUvarint(b, uint64(len(f)))
		return append(b, f...)
	}
	addr := binary.AppendUvarint([]byte("icaddrlog1"), 1<<27)
	raw := []byte(bundleMagic)
	raw = field(raw, []byte("fft"))
	raw = field(raw, append(addr, 0))
	raw = field(raw, []byte("icenv1\x00"))
	_, err := UnmarshalBundle(raw)
	if err == nil || !strings.Contains(err.Error(), "declared count") {
		t.Fatalf("forged bundle: err = %v, want a declared-count rejection", err)
	}
}
