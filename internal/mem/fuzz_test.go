package mem

import "testing"

// FuzzCacheInvalidation drives randomized Alloc/Free/Store/Load sequences —
// including reallocation at a previously freed base via AddrHook, the way
// deterministic malloc replay places blocks — and checks every access
// against a flat map model. It exists to catch stale reads through the
// page-indexed fast-window table and the page-owner metadata, whose
// invalidation on Free and re-establishment on Alloc is the subtle part of
// the memory engine's hot path.
//
// Bytes below 0x80 select the original seven operations, so the committed
// seeds keep their meaning. Bytes from 0x80 up select the table-specific
// shapes: blocks spanning several pages, blocks placed winSlots pages after
// a live one (so both share a table slot), runs of abutting same-kind blocks
// (one merged window over several blocks), and probes of freed words, which
// must miss every fast path and panic on the slow one.
//
// It also validates the dirty-page bitmap the delta hasher relies on: a
// "checkpoint" op diffs the model against a shadow copy taken at the last
// ClearDirty and requires every page whose hash-relevant content changed —
// including pages freed and re-allocated at a reused base — to be reported
// by TraverseDirtyRuns, with run contents matching the model.
func FuzzCacheInvalidation(f *testing.F) {
	f.Add([]byte{0, 3, 1, 4, 2, 5})
	f.Add([]byte{0, 0, 3, 3, 2, 1, 4, 4, 5, 2, 0, 3, 4})
	f.Add([]byte{0, 2, 1, 2, 1, 2, 1, 4})
	f.Add([]byte{0, 9, 3, 3, 6, 2, 0, 6, 1, 1, 3, 5, 6})
	// An abutting run of four 32-word blocks, stored through and loaded
	// (one merged window), then its second block freed and probed.
	f.Add([]byte{0x82, 0x05, 3, 4, 11, 4, 5, 6, 2, 5, 0x83, 12, 5, 13})
	// A two-page block, a block aliasing its first page's slot, a store on
	// the big block's second page, a load of the alias (the last slot
	// used), then the big block freed and its second page probed.
	f.Add([]byte{0x80, 0x05, 0x81, 4, 3, 0, 0x87, 4, 1, 2, 3, 5, 0x83, 0, 0x87, 4, 6})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := New()
		model := map[uint64]uint64{}
		// shadow is the hash-relevant state (live nonzero words) at the
		// last ClearDirty; effective() recomputes it from the model. A word
		// that is dead or zero-valued contributes nothing to the state
		// hash, so only live-nonzero words can make a page dirty-relevant.
		shadow := map[uint64]uint64{}
		effective := func() map[uint64]uint64 {
			eff := make(map[uint64]uint64, len(model))
			for a, v := range model {
				if v != 0 {
					eff[a] = v
				}
			}
			return eff
		}
		type slot struct {
			base uint64
			cap  int // footprint in words: reuse must not outgrow it
		}
		var live []*Block
		var freed []slot
		// maxEnd is one past the highest footprint ever allocated: an
		// aliasing placement beyond it can overlap nothing, live or freed.
		maxEnd := uint64(0)
		track := func(blk *Block) {
			live = append(live, blk)
			for w := 0; w < blk.Words; w++ {
				model[blk.Base+uint64(w)*WordSize] = 0
			}
			maxEnd = max(maxEnd, blk.Base+roundUpWords(blk.Words))
		}
		// pendingBase, when set, makes the next Alloc land on a reused
		// (previously freed) base — the replay-placement path.
		pendingBase := uint64(0)
		havePending := false
		m.AddrHook = func(site string, seq, words int) (uint64, bool) {
			if havePending {
				havePending = false
				return pendingBase, true
			}
			return 0, false
		}

		arg := func(i int) byte {
			if i+1 < len(ops) {
				return ops[i+1]
			}
			return 7
		}
		pickLive := func(b byte) *Block {
			if len(live) == 0 {
				return nil
			}
			return live[int(b)%len(live)]
		}
		// wordIndex maps a selector byte to a word of an n-word extent. Beyond
		// 128 words it strides, so a byte can reach every page of a
		// multi-page block; smaller extents (all the original operations
		// make) map exactly as b mod n.
		wordIndex := func(b byte, n int) uint64 {
			return uint64(int(b) * max(1, n/128) % n)
		}
		wordAddr := func(blk *Block, b byte) uint64 {
			return blk.Base + wordIndex(b, blk.Words)*WordSize
		}

		for i := 0; i < len(ops); i++ {
			op := int(ops[i] % 7)
			if ops[i] >= 0x80 {
				op = 7 + int(ops[i]-0x80)%4
			}
			sel := arg(i)
			switch op {
			case 0: // alloc fresh
				track(m.Alloc("fuzz.site", 1+int(sel)%96, KindWord))
			case 1: // alloc at a freed base, if one exists
				if len(freed) == 0 {
					continue
				}
				j := int(sel) % len(freed)
				s := freed[j]
				freed = append(freed[:j], freed[j+1:]...)
				pendingBase = s.base
				havePending = true
				words := 1 + int(sel)%s.cap
				blk := m.Alloc("fuzz.reuse", words, KindWord)
				havePending = false
				track(blk)
			case 2: // free a random live block
				blk := pickLive(sel)
				if blk == nil {
					continue
				}
				m.Free(blk.Base)
				// The freed footprint is rounded to the allocator's 16-word
				// chunk; reuse may occupy up to that without overlapping the
				// next block.
				freed = append(freed, slot{blk.Base, (blk.Words + 15) / 16 * 16})
				for w := 0; w < blk.Words; w++ {
					delete(model, blk.Base+uint64(w)*WordSize)
				}
				for j, b := range live {
					if b == blk {
						live = append(live[:j], live[j+1:]...)
						break
					}
				}
			case 3: // store through the fast path
				blk := pickLive(sel)
				if blk == nil {
					continue
				}
				addr := wordAddr(blk, arg(i+1))
				val := uint64(sel)<<8 | uint64(i)
				wantOld := model[addr]
				old, ok := m.StoreFast(addr, val)
				if !ok {
					old = m.Store(addr, val)
				}
				if old != wantOld {
					t.Fatalf("op %d: Store old at %#x = %d, model %d", i, addr, old, wantOld)
				}
				model[addr] = val
			case 4: // load through the fast path
				blk := pickLive(sel)
				if blk == nil {
					continue
				}
				addr := wordAddr(blk, arg(i+1))
				v, ok := m.LoadFast(addr)
				if !ok {
					v = m.Load(addr)
				}
				if want := model[addr]; v != want {
					t.Fatalf("op %d: Load %#x = %d, model %d", i, addr, v, want)
				}
			case 5: // verify BlockAt and a sweep of one block
				blk := pickLive(sel)
				if blk == nil {
					continue
				}
				addr := wordAddr(blk, arg(i+1))
				got := m.BlockAt(addr)
				if got != blk {
					t.Fatalf("op %d: BlockAt resolved %v, want block at %#x", i, got, blk.Base)
				}
				if k, ok := m.KindFast(addr); ok && k != blk.Kind {
					t.Fatalf("op %d: KindFast(%#x) = %v, block kind %v", i, addr, k, blk.Kind)
				}
				for w := 0; w < blk.Words; w++ {
					addr := blk.Base + uint64(w)*WordSize
					if v := m.Load(addr); v != model[addr] {
						t.Fatalf("op %d: sweep %#x = %d, model %d", i, addr, v, model[addr])
					}
				}
			case 6: // delta checkpoint: dirty pages must cover every change
				eff := effective()
				changed := map[uint64]bool{}
				for a, v := range shadow {
					if eff[a] != v {
						changed[a/pageBytes] = true
					}
				}
				for a, v := range eff {
					if shadow[a] != v {
						changed[a/pageBytes] = true
					}
				}
				dirty := map[uint64]bool{}
				reported := map[uint64]bool{}
				m.TraverseDirtyRuns(
					func(pn uint64) { dirty[pn] = true },
					func(base uint64, words []uint64, kind Kind) {
						for w, v := range words {
							addr := base + uint64(w)*WordSize
							want, liveWord := model[addr]
							if !liveWord {
								t.Fatalf("op %d: dirty run visited dead word %#x", i, addr)
							}
							if v != want {
								t.Fatalf("op %d: dirty run %#x = %d, model %d", i, addr, v, want)
							}
							reported[addr] = true
						}
					})
				for pn := range changed {
					if !dirty[pn] {
						t.Fatalf("op %d: page %d changed since last checkpoint but is not dirty", i, pn)
					}
				}
				// A dirty page's reported runs must cover every live word on
				// it: a missed run would leave a stale contribution cached.
				for addr := range model {
					if dirty[addr/pageBytes] && !reported[addr] {
						t.Fatalf("op %d: live word %#x on dirty page not reported", i, addr)
					}
				}
				if got, want := m.DirtyPageCount(), len(dirty); got != want {
					t.Fatalf("op %d: DirtyPageCount = %d, TraverseDirtyRuns reported %d", i, got, want)
				}
				m.ClearDirty()
				if n := m.DirtyPageCount(); n != 0 {
					t.Fatalf("op %d: %d pages dirty after ClearDirty", i, n)
				}
				shadow = eff
			case 7: // alloc a block spanning several pages
				kind := Kind(sel & 1)
				track(m.Alloc("fuzz.big", pageWords+int(sel)*11%(3*pageWords), kind))
			case 8: // alloc a block sharing a live block's table slot
				blk := pickLive(sel)
				if blk == nil {
					continue
				}
				const stride = winSlots * pageBytes
				base := blk.Base + (maxEnd-blk.Base+stride-1)/stride*stride
				if winSlot(base) != winSlot(blk.Base) {
					t.Fatalf("op %d: alias base %#x not in the slot of %#x", i, base, blk.Base)
				}
				pendingBase, havePending = base, true
				alias := m.Alloc("fuzz.alias", 1+int(arg(i+1))%96, blk.Kind)
				havePending = false
				track(alias)
			case 9: // alloc a run of abutting blocks of one kind
				kind := Kind(sel >> 4 & 1)
				words := 16 * (1 + int(sel>>2)%3)
				for n := 2 + int(sel)%3; n > 0; n-- {
					track(m.Alloc("fuzz.run", words, kind))
				}
			case 10: // freed words miss every fast path and panic on Load
				if len(freed) == 0 {
					continue
				}
				s := freed[int(sel)%len(freed)]
				addr := s.base + wordIndex(arg(i+1), s.cap)*WordSize
				if _, ok := m.LoadFast(addr); ok {
					t.Fatalf("op %d: LoadFast hit freed word %#x", i, addr)
				}
				if _, ok := m.StoreFast(addr, 1); ok {
					t.Fatalf("op %d: StoreFast hit freed word %#x", i, addr)
				}
				if _, ok := m.KindFast(addr); ok {
					t.Fatalf("op %d: KindFast hit freed word %#x", i, addr)
				}
				if !panics(func() { m.Load(addr) }) {
					t.Fatalf("op %d: Load of freed word %#x did not panic", i, addr)
				}
			}
		}

		// Final cross-check: TraverseRuns must agree with the model on
		// every live word (zero runs are skipped by construction, so only
		// compare the words it reports).
		seen := 0
		m.TraverseRuns(func(base uint64, words []uint64, kind Kind) {
			for w, v := range words {
				addr := base + uint64(w)*WordSize
				want, liveWord := model[addr]
				if !liveWord {
					t.Fatalf("TraverseRuns visited dead word %#x", addr)
				}
				if v != want {
					t.Fatalf("TraverseRuns %#x = %d, model %d", addr, v, want)
				}
				seen++
			}
		})
		if seen != len(model) {
			t.Fatalf("TraverseRuns visited %d words, model has %d", seen, len(model))
		}
	})
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}
