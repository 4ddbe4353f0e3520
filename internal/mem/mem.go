// Package mem implements the simulated shared memory InstantCheck observes:
// a 64-bit word-grained address space with an allocation table that records,
// for every live block, its allocation site, extent, and element kind. The
// table serves three of the paper's mechanisms:
//
//   - traversal hashing (SW-InstantCheck_Tr, §4.2) walks the static segment
//     plus the table of live allocations;
//   - the state-diff debugging tool (§2.3) maps a differing address back to
//     the source line that allocated it and the offset within the block;
//   - FP round-off during traversal needs to know which words hold doubles,
//     information the paper encodes as per-site type annotations.
//
// Memory is byte-addressed with 8-byte-aligned 8-byte words, matching the
// paper's model of hashing (virtual address, value) pairs at store
// granularity. Allocations are zero-filled, as InstantCheck's allocator
// interception does (§5), so that uninitialized garbage can never corrupt
// the state hash.
//
// Because every simulated load and store funnels through this package, it is
// the hottest layer of the whole system. The backing store is a two-level
// dense page directory (pure slice indexing, no map hash per access). Block
// lookup tries page-granular owner metadata first, which answers in O(1) for
// every page a single block covers, and otherwise binary-searches the sorted
// block table.
//
// Above both sits the fast-window table, the analogue of the L1 line
// the paper's MHM reads Data_old from (§3.1): 64 windows, direct-mapped by
// page number (slot = page number mod 64), each covering live words of one
// Kind on one page — the accessed block ∩ page, widened across abutting
// live blocks of the same kind. An access inside its slot's window is one
// range check and an unchecked word access, small enough to inline into the
// simulator (LoadFast, StoreFast, KindFast); on a miss the caller enters
// LoadSlow or StoreSlow, which resolve the block and install a window.
// Free drops every window that overlaps the freed block, including widened
// windows that begin before the block's base.
package mem

import (
	"fmt"
	"math/bits"
	"sort"
	"unsafe"
)

// WordSize is the grain of the simulated memory in bytes.
const WordSize = 8

// Kind describes what a word holds, so the hashing layers know whether the
// FP round-off unit applies. The paper obtains this from the compiler (LLVM
// marks FP stores) for the incremental schemes and from allocation-site type
// annotations for the traversal scheme.
type Kind uint8

const (
	// KindWord is an integer/pointer/opaque 64-bit word.
	KindWord Kind = iota
	// KindFloat is an IEEE-754 float64 stored as its bit pattern.
	KindFloat
)

// String returns "word" or "float".
func (k Kind) String() string {
	if k == KindFloat {
		return "float"
	}
	return "word"
}

// Block describes one allocation (or one static segment entry).
type Block struct {
	// Base is the address of the first word. Always WordSize-aligned.
	Base uint64
	// Words is the block length in 8-byte words.
	Words int
	// Site is the allocation-site label ("file:line" morally; any stable
	// string). The state-diff tool reports it to the programmer.
	Site string
	// Kind is the element kind of every word in the block. Mixed-kind
	// records are modeled as adjacent blocks of uniform kind, which is how
	// the paper's recursive type annotations flatten out.
	Kind Kind
	// Static marks blocks in the static data segment: allocated at setup,
	// never freed, always part of the hashed state.
	Static bool
	// Seq is the per-site allocation sequence number (0-based). Together
	// with Site it identifies "the j-th allocation at this site", the key
	// under which the deterministic-replay allocator logs addresses.
	Seq int
	// Live is false once the block has been freed.
	Live bool
}

// End returns the address one past the last word of the block.
func (b *Block) End() uint64 { return b.Base + uint64(b.Words)*WordSize }

// Contains reports whether addr falls inside the block.
func (b *Block) Contains(addr uint64) bool { return addr >= b.Base && addr < b.End() }

const (
	// StaticBase is where the static data segment begins.
	StaticBase uint64 = 0x0000_0000_0001_0000
	// HeapBase is where dynamic allocation begins.
	HeapBase uint64 = 0x0000_0000_1000_0000
	// PageWords is the granularity of the backing store and of TraverseRuns
	// visits: runs never cross a PageWords-aligned boundary, so hashing
	// layers can key per-run caches on (base, len) with bounded cardinality.
	PageWords = 512
	pageWords = PageWords
	pageBytes = pageWords * WordSize

	// The page directory is two levels deep: a root slice indexed by
	// pageNumber>>leafBits holding leaves of 1<<leafBits page slots each.
	// One leaf spans 512 KiB of address space. Leaves are kept small because
	// a Memory is created per simulated run and a leaf is the directory's
	// unit of allocation: small programs touch one or two leaves, and the
	// per-run setup cost must not dwarf the run itself.
	leafBits = 7
	leafSize = 1 << leafBits
	leafMask = leafSize - 1
)

type page [pageWords]uint64

// leaf is one second-level node of the page directory: the backing pages for
// a 512 KiB address window plus, per page, the live block that fully covers
// the page (nil when the page straddles block boundaries or holes). The
// owner metadata is what makes liveness checking O(1) for interior pages of
// large allocations. dirty is the per-page dirty bitmap consumed by the
// delta checkpoint sweep: a set bit means the page's contribution to the
// state hash may have changed since the last ClearDirty.
type leaf struct {
	pages [leafSize]*page
	owner [leafSize]*Block
	dirty [leafSize / 64]uint64
}

// winSlots is the size of the fast-window table. 64 page-indexed entries
// cover the working sets of the heaviest kernels (ocean's leapfrog loop
// touches nine arrays per iteration, per thread) while keeping the table at
// a few KiB per run.
const (
	winBits  = 6
	winSlots = 1 << winBits
	winMask  = winSlots - 1
)

// window is one fast-window table entry: the byte range [base, base+len) of
// live words of one Kind on one materialized page, with ptr pointing at the
// backing word of base. dirty/mask address the page's dirty bit, so a
// window-hit store marks its page with a single masked OR — the only
// dirty-tracking cost on the inlined hit path. An empty entry has len 0,
// which fails every range check; when len > 0, ptr points into a page kept
// alive by the directory and dirty into that page's leaf.
type window struct {
	base  uint64
	len   uint64
	ptr   unsafe.Pointer
	dirty *uint64
	mask  uint64
	kind  Kind
}

// winSlot returns the table slot of the page holding addr.
func winSlot(addr uint64) uint64 { return (addr / pageBytes) & winMask }

// zeroRun backs the word slices TraverseRuns hands out for words whose
// backing page was never materialized (allocated but never stored to, hence
// still zero). It must never be written.
var zeroRun [pageWords]uint64

// IsZeroRun reports whether a slice passed to a TraverseRuns visitor is the
// shared all-zero run: the words exist in the hashed state but have no
// backing page because they were never stored to. Hashing layers use this to
// take the cancellation shortcut h(a,0) ⊖ h(a,0) = 0 without touching the
// words at all.
func IsZeroRun(words []uint64) bool {
	return len(words) > 0 && &words[0] == &zeroRun[0]
}

// Memory is one simulated address space. It is not safe for concurrent use;
// the serializing scheduler guarantees only one thread touches it at a time.
type Memory struct {
	// dir is the root of the two-level page directory, indexed by
	// pageNumber >> leafBits.
	dir []*leaf

	// blocks maps base address -> block, for both live and freed heap
	// blocks (freed ones kept so the state-diff tool can still attribute
	// dangling pointers). order holds blocks sorted by base ascending; a
	// freed block stays in place as a tombstone (Live == false) until a
	// batched compaction sweep reclaims the slots, so Free never pays an
	// O(n) slice shift.
	blocks map[uint64]*Block
	order  []*Block
	dead   int // tombstones currently in order

	// wins is the fast-window table: winSlots windows, direct-mapped by
	// page number (slot = pn mod winSlots), each covering a run of live
	// same-kind words inside one materialized page (see window). Within a
	// window a Load/Store is one range check plus an unchecked word access —
	// cheap enough that the compiler inlines the whole access into the
	// simulator's instrumentation (the range check subsumes the bounds check
	// a slice would repeat). The table is machine-wide: page-indexed slots
	// already keep the threads' working sets apart, so a thread switch
	// neither saves nor discards anything. An entry is installed by the slow
	// paths and dropped by Free when it overlaps the freed block.
	wins [winSlots]window

	// fastLoadMiss and fastStoreMiss count slow-path resolutions: accesses
	// that missed the fast-window table into LoadSlow/StoreSlow (including
	// checker-internal stores such as the zeroing on free). They exist for
	// the observability layer's fast-window hit-rate metric and are plain
	// fields deliberately: the window-hit path itself carries no counting,
	// so enabling metrics costs the fast path nothing — hits are derived at
	// flush time as total accesses minus misses.
	fastLoadMiss  uint64
	fastStoreMiss uint64

	staticNext uint64
	heapNext   uint64

	// AddrHook, when non-nil, intercepts heap allocation placement: given
	// (site, seq, words) it may return a previously logged address. This is
	// the attachment point for the paper's malloc record/replay (§5).
	AddrHook func(site string, seq int, words int) (addr uint64, ok bool)

	siteSeq map[string]int

	liveWords int
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{
		blocks:     make(map[uint64]*Block),
		staticNext: StaticBase,
		heapNext:   HeapBase,
		siteSeq:    make(map[string]int),
	}
}

// AllocStatic reserves words in the static segment under the given site
// label. Static memory is always part of the hashed program state.
func (m *Memory) AllocStatic(site string, words int, kind Kind) uint64 {
	if words <= 0 {
		panic("mem: static allocation of non-positive size")
	}
	base := m.staticNext
	m.staticNext += roundUpWords(words)
	b := &Block{Base: base, Words: words, Site: site, Kind: kind, Static: true, Live: true}
	m.insertBlock(b)
	m.liveWords += words
	m.zeroLive(base, words)
	m.markDirtyRange(base, words)
	return base
}

// Alloc allocates a zero-filled block of words under the given site label
// and returns its base address. If AddrHook supplies a logged address for
// (site, seq) the block is placed there, implementing deterministic replay
// of malloc; otherwise a fresh bump address is used.
func (m *Memory) Alloc(site string, words int, kind Kind) *Block {
	if words <= 0 {
		panic("mem: allocation of non-positive size")
	}
	seq := m.siteSeq[site]
	m.siteSeq[site] = seq + 1
	var base uint64
	placed := false
	if m.AddrHook != nil {
		if a, ok := m.AddrHook(site, seq, words); ok {
			base = a
			placed = true
		}
	}
	if !placed {
		base = m.heapNext
		m.heapNext += roundUpWords(words)
	} else if base >= m.heapNext {
		m.heapNext = base + roundUpWords(words)
	}
	if old, exists := m.blocks[base]; exists && old.Live {
		panic(fmt.Sprintf("mem: allocator placed block at %#x which is still live (site %s)", base, old.Site))
	}
	b := &Block{Base: base, Words: words, Site: site, Kind: kind, Seq: seq, Live: true}
	m.insertBlock(b)
	m.liveWords += words
	// Zero-fill, as InstantCheck's allocator interception does. Only words
	// with a materialized backing page need explicit clearing: fresh pages
	// read as zero already. Dirty marking elides the same pages the
	// zero-fill does: an unmaterialized page contributes zero to the state
	// hash before and after the allocation.
	m.zeroLive(base, words)
	m.markDirtyRange(base, words)
	return b
}

// Free retires the block based at base and returns it. The block's current
// word values remain readable through Peek for hash-erasure purposes,
// but the block no longer belongs to the traversed state. Freeing a static
// block or an address that is not a live block base panics.
func (m *Memory) Free(base uint64) *Block {
	b := m.blocks[base]
	if b == nil || !b.Live {
		panic(fmt.Sprintf("mem: free of %#x which is not a live block", base))
	}
	if b.Static {
		panic(fmt.Sprintf("mem: free of static block %q at %#x", b.Site, base))
	}
	b.Live = false
	m.retireOrder(b)
	m.dropWindows(b)
	m.clearOwners(b)
	// The freed words leave the hashed state: their pages' contributions
	// change (to zero, for pages the block covered fully), so the delta
	// sweep must revisit them.
	m.markDirtyRange(b.Base, b.Words)
	m.liveWords -= b.Words
	return b
}

// Load returns the word at addr. Loading outside any live block panics:
// it is either a use-after-free or a wild read in the workload kernel.
func (m *Memory) Load(addr uint64) uint64 {
	if v, ok := m.LoadFast(addr); ok {
		return v
	}
	return m.LoadSlow(addr)
}

// LoadFast is the window-hit half of Load: it returns the word and true on
// a fast-window hit, and (0, false) otherwise without touching the slow
// path. It fits the compiler's inline budget, so hot instrumentation
// wrappers probe with it and fall back to LoadSlow.
func (m *Memory) LoadFast(addr uint64) (uint64, bool) {
	w := &m.wins[winSlot(addr)]
	if off := addr - w.base; off < w.len && addr&7 == 0 {
		return *(*uint64)(unsafe.Add(w.ptr, off)), true
	}
	return 0, false
}

// LoadSlow is the miss half of Load: it resolves addr without probing the
// fast-window table, installs a window for the next access, and counts
// one slow-path load. Callers reach it after LoadFast missed.
func (m *Memory) LoadSlow(addr uint64) uint64 {
	m.fastLoadMiss++
	b, i := m.lookup(addr)
	if b == nil || addr%WordSize != 0 {
		panic(accessFault("load", addr))
	}
	pn := addr / pageBytes
	lf := m.leafAt(pn)
	if lf == nil || lf.pages[pn&leafMask] == nil {
		return 0 // never stored to: reads zero, and no page to window
	}
	m.installWindow(b, i, pn, lf)
	return lf.pages[pn&leafMask][(addr%pageBytes)/WordSize]
}

// Store writes value at addr and returns the previous value — the Data_old
// the MHM reads from the L1 line before the update (§3.1). Storing outside
// any live block panics.
func (m *Memory) Store(addr, value uint64) (old uint64) {
	if old, ok := m.StoreFast(addr, value); ok {
		return old
	}
	return m.StoreSlow(addr, value)
}

// StoreFast is the window-hit half of Store: on a fast-window hit it
// performs the store and returns (old, true); otherwise it does nothing and
// returns (0, false). Like LoadFast it exists to inline into per-access
// instrumentation.
func (m *Memory) StoreFast(addr, value uint64) (old uint64, ok bool) {
	w := &m.wins[winSlot(addr)]
	if off := addr - w.base; off < w.len && addr&7 == 0 {
		p := (*uint64)(unsafe.Add(w.ptr, off))
		old = *p
		*p = value
		*w.dirty |= w.mask
		return old, true
	}
	return 0, false
}

// KindFast reports the Kind of the live word at addr and true when addr
// hits the fast-window table, and (0, false) otherwise. Windows are
// kind-homogeneous, so a hit answers without resolving the block.
func (m *Memory) KindFast(addr uint64) (Kind, bool) {
	w := &m.wins[winSlot(addr)]
	if addr-w.base < w.len {
		return w.kind, true
	}
	return 0, false
}

// StoreSlow is the miss half of Store: it performs the store without
// probing the fast-window table, installs a window for the next access,
// and counts one slow-path store. Callers reach it after StoreFast missed.
func (m *Memory) StoreSlow(addr, value uint64) (old uint64) {
	m.fastStoreMiss++
	b, i := m.lookup(addr)
	if b == nil || addr%WordSize != 0 {
		panic(accessFault("store", addr))
	}
	pn := addr / pageBytes
	lf := m.leafFor(pn)
	p := lf.pages[pn&leafMask]
	if p == nil {
		p = new(page)
		lf.pages[pn&leafMask] = p
	}
	w := &p[(addr%pageBytes)/WordSize]
	old, *w = *w, value
	lf.dirty[(pn&leafMask)>>6] |= 1 << (pn & 63)
	m.installWindow(b, i, pn, lf)
	return old
}

// accessFault is the panic message for a slow-path access to addr that is
// misaligned or outside every live block.
func accessFault(op string, addr uint64) string {
	if addr%WordSize != 0 {
		return fmt.Sprintf("mem: misaligned %s at %#x", op, addr)
	}
	return fmt.Sprintf("mem: %s at %#x outside any live block (use-after-free or wild access)", op, addr)
}

// installWindow points page pn's table slot at the live words around block
// b, which lookup resolved at index i of order, on page pn materialized in
// leaf lf: b ∩ page, widened across abutting live blocks of b's Kind so that
// a kernel striding over adjacent same-kind arrays on one page keeps hitting
// one window. The widened window stays kind-homogeneous and covers live
// words only; Free drops it if any of its blocks goes. An owner-resolved
// block (i == -1) covers the whole page, so neither walk starts.
func (m *Memory) installWindow(b *Block, i int, pn uint64, lf *leaf) {
	pageStart := pn * pageBytes
	pageEnd := pageStart + pageBytes
	start, end := max(b.Base, pageStart), min(b.End(), pageEnd)
	for j := i - 1; j >= 0 && start > pageStart; j-- {
		n := m.order[j]
		if !n.Live || n.Kind != b.Kind || n.End() != start {
			break
		}
		start = max(n.Base, pageStart)
	}
	for j := i + 1; j < len(m.order) && end < pageEnd; j++ {
		n := m.order[j]
		if !n.Live || n.Kind != b.Kind || n.Base != end {
			break
		}
		end = min(n.End(), pageEnd)
	}
	p := lf.pages[pn&leafMask]
	m.wins[pn&winMask] = window{
		base:  start,
		len:   end - start,
		ptr:   unsafe.Pointer(&p[(start%pageBytes)/WordSize]),
		dirty: &lf.dirty[(pn&leafMask)>>6],
		mask:  1 << (pn & 63),
		kind:  b.Kind,
	}
}

// dropWindows empties every table entry that overlaps the freed block b, so
// later accesses to its words re-validate liveness through the slow path.
// Only the slots of b's pages can hold such an entry; a block spanning the
// whole table checks every slot once.
func (m *Memory) dropWindows(b *Block) {
	lo, hi := b.Base, b.End()
	first, last := lo/pageBytes, (hi-1)/pageBytes
	if last-first >= winSlots {
		first, last = 0, winSlots-1
	}
	for pn := first; pn <= last; pn++ {
		if w := &m.wins[pn&winMask]; w.len > 0 && w.base < hi && lo < w.base+w.len {
			*w = window{}
		}
	}
}

// Peek reads a word without liveness checking (for snapshots and the
// hash-erasure path on free).
func (m *Memory) Peek(addr uint64) uint64 {
	if p := m.pageAt(addr / pageBytes); p != nil {
		return p[(addr%pageBytes)/WordSize]
	}
	return 0
}

// BlockAt returns the live block containing addr, or nil.
func (m *Memory) BlockAt(addr uint64) *Block {
	b, _ := m.lookup(addr)
	return b
}

// lookup resolves addr to the live block containing it and that block's
// index in order, or (nil, -1). Page-owner metadata answers first, in O(1)
// for every page one block fully covers, with index -1: such a block has no
// neighbour on the page. Otherwise a binary search over order finds it.
func (m *Memory) lookup(addr uint64) (*Block, int) {
	pn := addr / pageBytes
	if lf := m.leafAt(pn); lf != nil {
		if b := lf.owner[pn&leafMask]; b != nil {
			return b, -1
		}
	}
	i := sort.Search(len(m.order), func(i int) bool { return m.order[i].Base > addr })
	// Walk left past tombstones: live blocks never overlap any retained
	// block, so the nearest live predecessor is the only candidate.
	for i--; i >= 0; i-- {
		b := m.order[i]
		if b.Contains(addr) {
			if b.Live {
				return b, i
			}
			return nil, -1 // inside a freed block: dead for sure
		}
		if b.Live {
			return nil, -1
		}
	}
	return nil, -1
}

// BlockByBase returns the block (live or freed) whose base is exactly base,
// or nil. Freed blocks are retained for state-diff attribution.
func (m *Memory) BlockByBase(base uint64) *Block { return m.blocks[base] }

// LiveWords returns the number of words in the hashed state (static + live
// heap) — the quantity SW-InstantCheck_Tr sweeps at each checkpoint.
func (m *Memory) LiveWords() int { return m.liveWords }

// FastPathStats returns the slow-path resolution counts: loads and stores
// that missed the fast window. Together with the caller's total access
// counts these yield the fast-window hit rate; the fast path itself does
// no counting (see the field comments).
func (m *Memory) FastPathStats() (loadMisses, storeMisses uint64) {
	return m.fastLoadMiss, m.fastStoreMiss
}

// TraverseRuns visits every word of the hashed state (static segment plus
// live heap blocks) — the sweep SW-InstantCheck_Tr performs at each
// checkpoint — in ascending address order as maximal per-page runs: fn is
// called with the address of the first word of the run and a slice aliasing
// the backing page (or the shared all-zero run for words whose page was
// never materialized — see IsZeroRun).
// The callback must treat words as read-only and must not retain it past the
// call when it may later mutate memory; runs never cross a page boundary or
// a block boundary.
func (m *Memory) TraverseRuns(fn func(base uint64, words []uint64, kind Kind)) {
	for _, b := range m.order {
		if !b.Live {
			continue
		}
		addr := b.Base
		end := b.End()
		for addr < end {
			pn := addr / pageBytes
			chunkEnd := (pn + 1) * pageBytes
			if chunkEnd > end {
				chunkEnd = end
			}
			n := (chunkEnd - addr) / WordSize
			if p := m.pageAt(pn); p == nil {
				fn(addr, zeroRun[:n], b.Kind)
			} else {
				lo := (addr % pageBytes) / WordSize
				fn(addr, p[lo:lo+n], b.Kind)
			}
			addr = chunkEnd
		}
	}
}

// TraverseBlocks visits every live block in ascending address order.
func (m *Memory) TraverseBlocks(fn func(b *Block)) {
	for _, b := range m.order {
		if b.Live {
			fn(b)
		}
	}
}

// Snapshot captures the full hashed state for the state-diff tool: a copy
// of every live word plus the block table. The paper's prototype does the
// same when re-executing the two differing runs (§2.3).
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{
		Addrs: make([]uint64, 0, m.liveWords),
		Vals:  make([]uint64, 0, m.liveWords),
	}
	m.TraverseBlocks(func(b *Block) {
		copied := *b
		s.Blocks = append(s.Blocks, &copied)
	})
	m.TraverseRuns(func(base uint64, words []uint64, _ Kind) {
		for i, v := range words {
			s.Addrs = append(s.Addrs, base+uint64(i)*WordSize)
			s.Vals = append(s.Vals, v)
		}
	})
	return s
}

// Snapshot is a point-in-time copy of the hashed state. Words are stored as
// sorted parallel slices (ascending Addrs, matching Vals) rather than a map,
// so capture is a linear copy and comparison is a linear merge.
type Snapshot struct {
	// Blocks lists the live blocks in ascending base order.
	Blocks []*Block
	// Addrs holds the addresses of every live word, ascending.
	Addrs []uint64
	// Vals holds the word values, parallel to Addrs.
	Vals []uint64
}

// NewSnapshot builds a snapshot from a block list and an address->value map,
// the pre-slice representation. It exists for tests and tools that assemble
// snapshots by hand.
func NewSnapshot(blocks []*Block, words map[uint64]uint64) *Snapshot {
	s := &Snapshot{Blocks: blocks, Addrs: make([]uint64, 0, len(words))}
	for addr := range words {
		s.Addrs = append(s.Addrs, addr)
	}
	sort.Slice(s.Addrs, func(i, j int) bool { return s.Addrs[i] < s.Addrs[j] })
	s.Vals = make([]uint64, len(s.Addrs))
	for i, addr := range s.Addrs {
		s.Vals[i] = words[addr]
	}
	return s
}

// Len returns the number of words in the snapshot.
func (s *Snapshot) Len() int { return len(s.Addrs) }

// Word returns the value at addr and whether addr is part of the snapshot —
// the compatibility accessor for the former map representation.
func (s *Snapshot) Word(addr uint64) (uint64, bool) {
	lo, hi := 0, len(s.Addrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.Addrs[mid] < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.Addrs) && s.Addrs[lo] == addr {
		return s.Vals[lo], true
	}
	return 0, false
}

// BlockAt returns the snapshot block containing addr, or nil.
func (s *Snapshot) BlockAt(addr uint64) *Block {
	i := sort.Search(len(s.Blocks), func(i int) bool { return s.Blocks[i].Base > addr })
	if i == 0 {
		return nil
	}
	b := s.Blocks[i-1]
	if b.Contains(addr) {
		return b
	}
	return nil
}

// insertBlock links b into the block map and the sorted order slice. The
// bump allocator almost always appends at the end; replayed placements over
// a freed base revive the tombstone in place; only genuinely out-of-order
// placements (rare) pay the O(n) insert shift.
func (m *Memory) insertBlock(b *Block) {
	m.blocks[b.Base] = b
	n := len(m.order)
	if n == 0 || m.order[n-1].Base < b.Base {
		m.order = append(m.order, b)
		m.setOwners(b)
		return
	}
	i := sort.Search(n, func(i int) bool { return m.order[i].Base >= b.Base })
	if i < n && m.order[i].Base == b.Base {
		// The slot holds the tombstone of a freed block at the same base
		// (the caller already rejected double placement over a live one).
		if m.dead > 0 {
			m.dead--
		}
		m.order[i] = b
		m.setOwners(b)
		return
	}
	m.order = append(m.order, nil)
	copy(m.order[i+1:], m.order[i:])
	m.order[i] = b
	m.setOwners(b)
}

// retireOrder tombstones a freed block in the order slice and compacts the
// slice once tombstones dominate, batching what used to be a per-free O(n)
// shift into an amortized O(1) mark.
func (m *Memory) retireOrder(b *Block) {
	m.dead++
	if m.dead < 32 || m.dead*2 < len(m.order) {
		return
	}
	live := m.order[:0]
	for _, blk := range m.order {
		if blk.Live {
			live = append(live, blk)
		}
	}
	// Drop the trailing pointers so freed blocks become collectable once
	// the blocks map no longer needs them.
	for i := len(live); i < len(m.order); i++ {
		m.order[i] = nil
	}
	m.order = live
	m.dead = 0
}

// setOwners records b as the owner of every page it fully covers, making
// liveness lookups on those pages O(1).
func (m *Memory) setOwners(b *Block) {
	first := (b.Base + pageBytes - 1) / pageBytes
	last := b.End() / pageBytes // one past the last fully covered page
	for pn := first; pn < last; pn++ {
		m.leafFor(pn).owner[pn&leafMask] = b
	}
}

// clearOwners removes b's page-owner entries on free.
func (m *Memory) clearOwners(b *Block) {
	first := (b.Base + pageBytes - 1) / pageBytes
	last := b.End() / pageBytes
	for pn := first; pn < last; pn++ {
		if lf := m.leafAt(pn); lf != nil {
			lf.owner[pn&leafMask] = nil
		}
	}
}

// markDirtyRange marks every page overlapping [base, base+words*WordSize)
// whose directory leaf exists. Pages under a missing leaf were never stored
// to: every word there reads zero, so the page's state-hash contribution is
// zero both before and after the block-table change being recorded, and the
// delta sweep can skip it — the bitmap analogue of zero-fill elision.
func (m *Memory) markDirtyRange(base uint64, words int) {
	first := base / pageBytes
	last := (base + uint64(words)*WordSize - 1) / pageBytes
	for pn := first; pn <= last; pn++ {
		if lf := m.leafAt(pn); lf != nil {
			lf.dirty[(pn&leafMask)>>6] |= 1 << (pn & 63)
		}
	}
}

// DirtyPageCount returns the number of pages currently marked dirty.
func (m *Memory) DirtyPageCount() int {
	n := 0
	for _, lf := range m.dir {
		if lf == nil {
			continue
		}
		for _, w := range lf.dirty {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// ClearDirty resets the dirty bitmap. A delta-hashing checkpoint calls it
// after folding the dirty pages' new contributions into its cache.
func (m *Memory) ClearDirty() {
	for _, lf := range m.dir {
		if lf != nil {
			lf.dirty = [leafSize / 64]uint64{}
		}
	}
}

// TraverseDirtyRuns visits every dirty page in ascending page-number order.
// For each dirty page it calls page(pn) once, then run(base, words, kind)
// for every maximal live run on that page — zero calls when the page no
// longer holds live words (its whole extent was freed), which tells delta
// hashers the page's contribution is now zero. Run slices follow the
// TraverseRuns contract: read-only, never crossing a page or block boundary,
// and the shared all-zero run (IsZeroRun) for unmaterialized backing.
func (m *Memory) TraverseDirtyRuns(page func(pn uint64), run func(base uint64, words []uint64, kind Kind)) {
	for di, lf := range m.dir {
		if lf == nil {
			continue
		}
		for wi, w := range lf.dirty {
			for w != 0 {
				bit := uint64(bits.TrailingZeros64(w))
				w &= w - 1
				pn := uint64(di)<<leafBits | uint64(wi)<<6 | bit
				page(pn)
				m.dirtyPageRuns(lf, pn, run)
			}
		}
	}
}

// dirtyPageRuns emits the live runs of one page. The common case — a single
// live block covering the whole page — resolves through the page-owner
// metadata; partial pages fall back to a bounded scan of the block table
// around the page extent.
func (m *Memory) dirtyPageRuns(lf *leaf, pn uint64, run func(base uint64, words []uint64, kind Kind)) {
	pageStart := pn * pageBytes
	pageEnd := pageStart + pageBytes
	p := lf.pages[pn&leafMask]
	if b := lf.owner[pn&leafMask]; b != nil && b.Live {
		if p == nil {
			run(pageStart, zeroRun[:pageWords], b.Kind)
		} else {
			run(pageStart, p[:pageWords:pageWords], b.Kind)
		}
		return
	}
	// No full-page owner: find the blocks overlapping the page. Live blocks
	// never overlap retained tombstones, so walking left stops at the first
	// block (live or dead) that ends at or before the page start.
	i := sort.Search(len(m.order), func(i int) bool { return m.order[i].Base >= pageEnd })
	start := i
	for start > 0 && m.order[start-1].End() > pageStart {
		start--
	}
	for ; start < i; start++ {
		b := m.order[start]
		if !b.Live || b.End() <= pageStart || b.Base >= pageEnd {
			continue
		}
		lo, hi := b.Base, b.End()
		if lo < pageStart {
			lo = pageStart
		}
		if hi > pageEnd {
			hi = pageEnd
		}
		n := (hi - lo) / WordSize
		if p == nil {
			run(lo, zeroRun[:n], b.Kind)
		} else {
			w := (lo % pageBytes) / WordSize
			run(lo, p[w:w+n:w+n], b.Kind)
		}
	}
}

// leafAt returns the directory leaf covering page pn, or nil.
func (m *Memory) leafAt(pn uint64) *leaf {
	di := pn >> leafBits
	if di >= uint64(len(m.dir)) {
		return nil
	}
	return m.dir[di]
}

// leafFor returns the directory leaf covering page pn, growing the root and
// materializing the leaf as needed.
func (m *Memory) leafFor(pn uint64) *leaf {
	di := pn >> leafBits
	for di >= uint64(len(m.dir)) {
		m.dir = append(m.dir, nil)
	}
	lf := m.dir[di]
	if lf == nil {
		lf = new(leaf)
		m.dir[di] = lf
	}
	return lf
}

// pageAt returns the backing page pn, or nil if it was never materialized.
func (m *Memory) pageAt(pn uint64) *page {
	if lf := m.leafAt(pn); lf != nil {
		return lf.pages[pn&leafMask]
	}
	return nil
}

// zeroLive clears [base, base+words*WordSize) on materialized pages only:
// pages never stored to already read as zero, so a fresh bump allocation
// skips the fill entirely and only re-placements over dirtied memory pay for
// the words they actually reuse.
func (m *Memory) zeroLive(base uint64, words int) {
	addr := base
	end := base + uint64(words)*WordSize
	for addr < end {
		pn := addr / pageBytes
		chunkEnd := (pn + 1) * pageBytes
		if chunkEnd > end {
			chunkEnd = end
		}
		if p := m.pageAt(pn); p != nil {
			lo := (addr % pageBytes) / WordSize
			hi := lo + (chunkEnd-addr)/WordSize
			clear(p[lo:hi])
		}
		addr = chunkEnd
	}
}

func roundUpWords(words int) uint64 {
	// Round block footprints to 16 words so distinct sites never collide
	// and replayed addresses stay stable when sizes wobble slightly.
	const chunk = 16
	w := (words + chunk - 1) / chunk * chunk
	return uint64(w) * WordSize
}
