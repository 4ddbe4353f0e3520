package replay

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// TestAddrLogMarshalRoundTrip: marshal → unmarshal reproduces every entry.
func TestAddrLogMarshalRoundTrip(t *testing.T) {
	l := NewAddrLog()
	l.Record("alloc@main.go:10", 0, 0x1000)
	l.Record("alloc@main.go:10", 1, 0x2000)
	l.Record("alloc@worker.go:44", 0, 0x8000_0000_0000)
	l.Record("z", 7, 1)

	b, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalAddrLog(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("round trip lost entries: %d != %d", got.Len(), l.Len())
	}
	for k, v := range l.addrs {
		g, ok := got.Lookup(k.site, k.seq)
		if !ok || g != v {
			t.Errorf("entry %s#%d: got %#x ok=%v, want %#x", k.site, k.seq, g, ok, v)
		}
	}
}

// TestAddrLogDigestDeterministic: insertion order must not matter — the
// digest is a content address, so two recordings of the same execution must
// key the same blob.
func TestAddrLogDigestDeterministic(t *testing.T) {
	a, b := NewAddrLog(), NewAddrLog()
	entries := []struct {
		site string
		seq  int
		addr uint64
	}{
		{"s1", 0, 10}, {"s1", 1, 20}, {"s2", 0, 30}, {"s0", 5, 40},
	}
	for _, e := range entries {
		a.Record(e.site, e.seq, e.addr)
	}
	for i := len(entries) - 1; i >= 0; i-- {
		b.Record(entries[i].site, entries[i].seq, entries[i].addr)
	}
	da, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("digest depends on insertion order: %s != %s", da, db)
	}

	b.Record("s9", 0, 99)
	db2, _ := b.Digest()
	if db2 == db {
		t.Fatal("digest did not change with content")
	}
}

// TestDigestHexRoundTrip: the wire form of a digest parses back.
func TestDigestHexRoundTrip(t *testing.T) {
	l := NewAddrLog()
	l.Record("s", 0, 42)
	d, err := l.Digest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseDigest(d.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("hex round trip: %s != %s", got, d)
	}
	if _, err := ParseDigest("zz"); err == nil {
		t.Fatal("ParseDigest accepted garbage")
	}
}

// TestEnvRoundTrip: a recorded env's streams survive serialization, and a
// fork of the deserialized env replays the identical values — the property
// worker-side replay depends on.
func TestEnvRoundTrip(t *testing.T) {
	e := NewEnv(42)
	var want []uint64
	for i := 0; i < 5; i++ {
		want = append(want, e.Rand(0))
	}
	want = append(want, e.Next(3, "gettimeofday"))

	b, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalEnv(b)
	if err != nil {
		t.Fatal(err)
	}

	// Both the original and the deserialized env fork to identical replays.
	f1, f2 := e.Fork(7), back.Fork(7)
	for i := 0; i < 5; i++ {
		v1, v2 := f1.Rand(0), f2.Rand(0)
		if v1 != want[i] || v2 != want[i] {
			t.Fatalf("draw %d: fork-of-original %d, fork-of-decoded %d, want %d", i, v1, v2, want[i])
		}
	}
	if v1, v2 := f1.Next(3, "gettimeofday"), f2.Next(3, "gettimeofday"); v1 != want[5] || v2 != want[5] {
		t.Fatalf("tid-3 stream: %d / %d, want %d", v1, v2, want[5])
	}
	// Past the recorded streams both forks draw from the fork seed, so they
	// still agree with each other (the determinism-across-workers property).
	for i := 0; i < 3; i++ {
		if v1, v2 := f1.Rand(0), f2.Rand(0); v1 != v2 {
			t.Fatalf("overflow draw %d disagrees: %d != %d", i, v1, v2)
		}
	}
}

// TestEnvMarshalDeterministic: stream map order must not leak into bytes.
func TestEnvMarshalDeterministic(t *testing.T) {
	mk := func() []byte {
		e := NewEnv(1)
		e.Rand(2)
		e.Rand(0)
		e.Next(1, "gettimeofday")
		e.Rand(1)
		b, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := mk()
	for i := 0; i < 20; i++ {
		if !bytes.Equal(first, mk()) {
			t.Fatal("env serialization not deterministic")
		}
	}
}

// TestUnmarshalRejectsCorruption: truncated or mislabeled blobs error out
// instead of yielding a silently wrong replay substrate.
func TestUnmarshalRejectsCorruption(t *testing.T) {
	l := NewAddrLog()
	l.Record("site", 0, 0xdead)
	b, _ := l.MarshalBinary()
	if _, err := UnmarshalAddrLog(b[:len(b)-1]); err == nil {
		t.Error("truncated addr log accepted")
	}
	if _, err := UnmarshalAddrLog([]byte("icenv1")); err == nil {
		t.Error("wrong magic accepted")
	}

	e := NewEnv(1)
	e.Rand(0)
	eb, _ := e.MarshalBinary()
	if _, err := UnmarshalEnv(eb[:len(eb)-1]); err == nil {
		t.Error("truncated env accepted")
	}
	if _, err := UnmarshalEnv(b); err == nil {
		t.Error("addr log bytes accepted as env")
	}
}

// TestUnmarshalRejectsForgedCounts: a few bytes declaring 2^27 entries must
// be refused before any map or slice is sized from the count. Sizing first
// would ask for gigabytes; the decoders must error out having allocated
// next to nothing.
func TestUnmarshalRejectsForgedCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<27)
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	cases := []struct {
		name   string
		blob   []byte
		decode func([]byte) error
	}{
		{"addr log entries", cat([]byte(addrLogMagic), huge, []byte{0}),
			func(b []byte) error { _, err := UnmarshalAddrLog(b); return err }},
		{"env streams", cat([]byte(envMagic), huge, []byte{0, 0, 0, 0, 0}),
			func(b []byte) error { _, err := UnmarshalEnv(b); return err }},
		{"env stream values", cat([]byte(envMagic), []byte{1, 0, 0}, huge, []byte{0, 0}),
			func(b []byte) error { _, err := UnmarshalEnv(b); return err }},
	}
	for _, c := range cases {
		if len(c.blob) > 16 {
			t.Fatalf("%s: forged blob is %d bytes, want a ~15-byte input", c.name, len(c.blob))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(c.blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: forged count 2^27 accepted", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: decoder allocated %d bytes before rejecting", c.name, grew)
		}
	}
}
