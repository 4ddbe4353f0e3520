package mem

import "testing"

// BenchmarkMemStoreLoad measures the raw load/store hot path of the memory
// engine: the fast-window hit rate for the strided-sweep access pattern the
// workload kernels exhibit, with the slow (directory-walk) path exercised at
// every block boundary crossing.
func BenchmarkMemStoreLoad(b *testing.B) {
	const blockWords = 4096
	m := New()
	blk := m.Alloc("bench.block", blockWords, KindWord)

	b.Run("StoreFast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			addr := blk.Base + uint64(i%blockWords)*WordSize
			if _, ok := m.StoreFast(addr, uint64(i)); !ok {
				m.Store(addr, uint64(i))
			}
		}
	})
	b.Run("LoadFast", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			addr := blk.Base + uint64(i%blockWords)*WordSize
			if v, ok := m.LoadFast(addr); ok {
				sink += v
			} else {
				sink += m.Load(addr)
			}
		}
		_ = sink
	})
	b.Run("Load", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += m.Load(blk.Base + uint64(i%blockWords)*WordSize)
		}
		_ = sink
	})

	// Alternating between two blocks whose pages share a fast-window slot
	// misses the window table on every access, so each load pays the block
	// lookup and the directory walk: the slow-path floor.
	m.AddrHook = func(string, int, int) (uint64, bool) { return blk.Base + winSlots*pageBytes, true }
	far := m.Alloc("bench.far", blockWords, KindWord)
	m.AddrHook = nil
	for w := uint64(0); w < blockWords; w += PageWords {
		m.Store(far.Base+w*WordSize, 1) // materialize, so misses install windows
	}
	b.Run("LoadSlowPath", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			base := blk.Base
			if i&1 == 1 {
				base = far.Base
			}
			sink += m.Load(base + uint64(i%blockWords)*WordSize)
		}
		_ = sink
	})
}

// BenchmarkAllocFree measures the allocate/zero/free cycle, which bounds the
// simulator's malloc-heavy workloads (the HW scheme's only modeled overhead
// is allocation-time zero-filling, so the engine must not add real cost on
// top of it).
func BenchmarkAllocFree(b *testing.B) {
	for _, words := range []int{16, 512, 8192} {
		b.Run(sizeName(words), func(b *testing.B) {
			b.ReportAllocs()
			m := New()
			for i := 0; i < b.N; i++ {
				blk := m.Alloc("bench.cycle", words, KindWord)
				m.Store(blk.Base, uint64(i)) // touch so Free has live data to erase
				m.Free(blk.Base)
			}
		})
	}
}

func sizeName(words int) string {
	switch {
	case words >= 1024:
		return "8KiB+"
	case words >= 512:
		return "4KiB"
	default:
		return "128B"
	}
}
