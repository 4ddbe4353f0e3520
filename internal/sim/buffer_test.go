package sim

import (
	"math/rand"
	"testing"

	"instantcheck/internal/mem"
	"instantcheck/internal/replay"
)

// bufStreamProg is the store-buffer torture workload: a randomized mix of
// stores, FP stores, malloc/free churn, explicit checkpoints, hashing-gate
// toggles and machine-wide rounding flips — every event that can interleave
// with a buffered window. All sync-free, so any schedule is comparable.
type bufStreamProg struct {
	nt       int
	progSeed uint64
	steps    int

	global uint64
	fps    uint64
}

func (p *bufStreamProg) Name() string { return "bufstream" }
func (p *bufStreamProg) Threads() int { return p.nt }
func (p *bufStreamProg) Setup(t *Thread) {
	p.global = t.AllocStatic("static:buf.global", 32, mem.KindWord)
	p.fps = t.AllocStatic("static:buf.fps", 8*p.nt, mem.KindFloat)
}
func (p *bufStreamProg) Worker(t *Thread) {
	rng := rand.New(rand.NewSource(int64(p.progSeed) + int64(t.TID())*7919))
	var blocks []uint64
	for s := 0; s < p.steps; s++ {
		switch rng.Intn(12) {
		case 0, 1, 2, 3: // store to a thread-owned slice (hot: coalesces)
			i := t.TID()*8 + rng.Intn(8)
			t.Store(p.global+uint64(i)*8, rng.Uint64())
		case 4, 5: // FP store (exercises rounding at drain)
			j := t.TID()*8 + rng.Intn(8)
			t.StoreF(p.fps+uint64(j)*8, float64(rng.Intn(1000))/7.0)
		case 6: // malloc + fill
			b := t.Malloc("buf.heap", rng.Intn(4)+1, mem.KindWord)
			t.Store(b, rng.Uint64())
			blocks = append(blocks, b)
		case 7: // free — the erase pair rides the batch path
			if len(blocks) > 0 {
				k := rng.Intn(len(blocks))
				t.Free(blocks[k])
				blocks = append(blocks[:k], blocks[k+1:]...)
			}
		case 8: // explicit checkpoint: TH becomes observable mid-window
			if t.TID() == 0 {
				t.Checkpoint("cp")
			}
		case 9: // hashing gate toggle (analysis-tool windows, §3.3)
			if rng.Intn(2) == 0 {
				t.StopHashing()
				t.Store(p.global+uint64(t.TID()*8)*8, rng.Uint64())
				t.StartHashing()
			}
		case 10: // machine-wide rounding flip: must drain every buffer
			if t.TID() == 0 {
				t.Machine().SetFPRounding(rng.Intn(2) == 0)
			}
		case 11: // pure compute: varies preemption alignment
			t.Compute(rng.Intn(10))
		}
	}
	for _, b := range blocks {
		t.Free(b)
	}
}

// runBufStream executes the torture workload with the given buffer size.
func runBufStream(t *testing.T, scheme Scheme, words int, progSeed uint64, schedSeed int64, log *replay.AddrLog) *Result {
	t.Helper()
	m := NewMachine(Config{
		Threads:          3,
		ScheduleSeed:     schedSeed,
		Scheme:           scheme,
		StoreBufferWords: words,
		AddrLog:          log,
	})
	res, err := m.Run(&bufStreamProg{nt: 3, progSeed: progSeed, steps: 60})
	if err != nil {
		t.Fatalf("bufstream run: %v", err)
	}
	return res
}

// FuzzBufferedEqualsUnbatched is the tentpole's bit-identity gate at the
// simulator level: for any op stream, any schedule and any buffer size,
// the buffered SW-Inc and HW-Inc schemes must produce exactly the
// per-checkpoint hash vector of inline per-store hashing. Not "equivalent
// modulo reordering" — the same uint64s, at every checkpoint.
func FuzzBufferedEqualsUnbatched(f *testing.F) {
	f.Add(uint64(1), int64(2), uint8(0))
	f.Add(uint64(11), int64(5), uint8(4))
	f.Add(uint64(99), int64(42), uint8(255))
	f.Fuzz(func(t *testing.T, progSeed uint64, schedSeed int64, words uint8) {
		for _, scheme := range []Scheme{SWInc, HWInc} {
			log := replay.NewAddrLog()
			inline := runBufStream(t, scheme, -1, progSeed, schedSeed, log)
			buffered := runBufStream(t, scheme, int(words)%128+1, progSeed, schedSeed, log)
			iv, bv := inline.SHVector(), buffered.SHVector()
			if len(iv) != len(bv) {
				t.Fatalf("%v: checkpoint counts differ: inline %d, buffered %d", scheme, len(iv), len(bv))
			}
			for i := range iv {
				if iv[i] != bv[i] {
					t.Fatalf("%v checkpoint %d (%s): inline %s != buffered %s",
						scheme, i, inline.Checkpoints[i].Label, iv[i], bv[i])
				}
			}
			if inline.MHMStats.BufferFlushes != 0 {
				t.Fatalf("%v: inline run flushed %d times", scheme, inline.MHMStats.BufferFlushes)
			}
			if buffered.MHMStats.BufferFlushes == 0 {
				t.Fatalf("%v: buffered run never drained", scheme)
			}
			// Legacy accounting must not notice the buffer.
			is, bs := inline.MHMStats, buffered.MHMStats
			if is.HashedStores != bs.HashedStores || is.SkippedStores != bs.SkippedStores ||
				is.RoundedStores != bs.RoundedStores || is.MinusOps != bs.MinusOps || is.PlusOps != bs.PlusOps {
				t.Fatalf("%v: per-store stats diverged: inline %+v, buffered %+v", scheme, is, bs)
			}
		}
	})
}

// TestStoreBufferSchemeGate checks the buffer only attaches to the true
// incremental schemes: SW-InstantCheck_NonAtomic keeps its naive inline
// instrumentation (its §4.1 race window must stay observable), and the
// traversal scheme has no per-store hashing to batch.
func TestStoreBufferSchemeGate(t *testing.T) {
	for _, scheme := range []Scheme{SWIncNonAtomic, SWTr, Native} {
		m := NewMachine(Config{Threads: 2, ScheduleSeed: 1, Scheme: scheme, StoreBufferWords: 64})
		res, err := m.Run(&allocFreeProg{nt: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.MHMStats.BufferFlushes != 0 || res.Counters.StoreBufferFlushes != 0 {
			t.Errorf("%v: store buffer attached (flushes=%d)", scheme, res.MHMStats.BufferFlushes)
		}
	}
}

// TestStoreBufferCountersMirror checks the run-end copy of the aggregated
// buffer stats into the cost-model counters.
func TestStoreBufferCountersMirror(t *testing.T) {
	res := runBufStream(t, HWInc, 16, 7, 8, replay.NewAddrLog())
	c, s := res.Counters, res.MHMStats
	if c.StoreBufferFlushes != s.BufferFlushes || c.StoreBufferDrainedWords != s.DrainedWords ||
		c.StoreBufferCoalesced != s.CoalescedStores {
		t.Errorf("counters %+v do not mirror MHM stats %+v", c, s)
	}
	if s.BufferFlushes == 0 || s.DrainedWords == 0 {
		t.Errorf("buffered run did no batch work: %+v", s)
	}
}
