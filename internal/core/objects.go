package core

import (
	"fmt"
	"math"

	"compaction/internal/heap"
	"compaction/internal/word"
)

// portion says how much of an object a chunk's association set holds:
// the whole object, or exactly half of it (Section 4's half-objects:
// an object lying on the border of two chunks may have half of its
// size associated with each, "ignoring the actual way the object is
// split between the chunks").
type portion uint8

const (
	half portion = iota
	full
)

// Bits of objects.flags.
const (
	flagLive  uint8 = 1 << 0
	flagGhost uint8 = 1 << 1
	// flagFull0<<s marks slot s (0 or 1) as holding the whole object;
	// a clear bit means the slot holds a half.
	flagFull0 uint8 = 1 << 2
	// Bits 4..5 count the slots in use (0, 1 or 2).
	nwShift       = 4
	nwMask  uint8 = 3 << nwShift
)

// maxLink is the largest object ID or chunk index the 32-bit links of
// the association table can name.
const maxLink = math.MaxInt32

// objects is P_F's per-object state: pointer-free columns indexed by
// ObjectID, which the engine hands out sequentially from 1. A record
// stays for every ID ever issued; clearing live and ghost takes an
// object out of consideration. Live objects always sit at their
// allocation-time address (P_F frees every object the manager moves,
// so nothing live ever changes address).
//
// An object's associations (Section 4) live in two slots: chunk s of
// the object is the index of the chunk slot s is associated with, and
// the flags byte says how many slots are in use and which of them hold
// the whole object rather than a half.
//
// The columns are cut into fixed pages, so the store grows without
// ever copying or over-allocating.
type objects struct {
	pages []*objPage
	n     int32 // IDs 0..n-1 have records
}

const (
	objPageShift = 12
	objPageSize  = 1 << objPageShift
	objPageMask  = objPageSize - 1
)

// objPage holds the columns of objPageSize consecutive IDs, 18 bytes
// per ID.
type objPage struct {
	addr  [objPageSize]word.Addr
	chunk [objPageSize][2]int32
	lg    [objPageSize]uint8 // log2 of the size: P_F runs are Pow2Only
	flags [objPageSize]uint8 // live, ghost, slot count and slot portions
}

// reserve allocates pages for n more IDs, so that placing them never
// allocates.
func (o *objects) reserve(n int) {
	for len(o.pages)*objPageSize < int(o.n)+n {
		o.pages = append(o.pages, new(objPage))
	}
}

// add records a newly placed live object and returns its index.
func (o *objects) add(id heap.ObjectID, s heap.Span) int32 {
	if id < 0 || id >= maxLink {
		panic(fmt.Sprintf("core: object ID %d outside the 32-bit range", id))
	}
	if !word.IsPow2(s.Size) {
		panic(fmt.Sprintf("core: object %d size %d is not a power of two", id, s.Size))
	}
	i := int32(id)
	if i >= o.n {
		o.reserve(int(i - o.n + 1))
		o.n = i + 1
	}
	pg, j := o.at(i)
	pg.addr[j] = s.Addr
	pg.lg[j] = uint8(word.Log2(s.Size))
	pg.flags[j] = flagLive
	pg.chunk[j] = [2]int32{}
	return i
}

// at returns the page holding ID i and i's position in it.
func (o *objects) at(i int32) (*objPage, int32) {
	return o.pages[i>>objPageShift], i & objPageMask
}

func (o *objects) addr(i int32) word.Addr {
	pg, j := o.at(i)
	return pg.addr[j]
}

func (o *objects) flags(i int32) *uint8 {
	pg, j := o.at(i)
	return &pg.flags[j]
}

// chunk returns the chunk slot s is associated with.
func (o *objects) chunk(i int32, s int) int32 {
	pg, j := o.at(i)
	return pg.chunk[j][s]
}

func (o *objects) setChunk(i int32, s int, d int32) {
	pg, j := o.at(i)
	pg.chunk[j][s] = d
}

func (o *objects) size(i int32) word.Size {
	pg, j := o.at(i)
	return word.Size(1) << pg.lg[j]
}

func (o *objects) span(i int32) heap.Span { return heap.Span{Addr: o.addr(i), Size: o.size(i)} }

func (o *objects) live(i int32) bool { return *o.flags(i)&flagLive != 0 }

func (o *objects) ghost(i int32) bool { return *o.flags(i)&flagGhost != 0 }

// tracked reports whether P_F still considers the object: live, or a
// stage-I ghost.
func (o *objects) tracked(i int32) bool { return *o.flags(i)&(flagLive|flagGhost) != 0 }

func (o *objects) kill(i int32) { *o.flags(i) &^= flagLive }

// makeGhost turns a moved stage-I object into a ghost counted at addr.
func (o *objects) makeGhost(i int32, addr word.Addr) {
	pg, j := o.at(i)
	pg.flags[j] = pg.flags[j]&^flagLive | flagGhost
	pg.addr[j] = addr
}

// untrack takes the object out of consideration for good.
func (o *objects) untrack(i int32) { *o.flags(i) &^= flagLive | flagGhost }

// nw returns the number of chunks holding associations of the object.
func (o *objects) nw(i int32) int { return int(*o.flags(i)&nwMask) >> nwShift }

func (o *objects) setNW(i int32, n int) {
	f := o.flags(i)
	*f = *f&^nwMask | uint8(n)<<nwShift
}

// portionAt returns the portion slot s holds.
func (o *objects) portionAt(i int32, s int) portion {
	if *o.flags(i)&(flagFull0<<s) != 0 {
		return full
	}
	return half
}

func (o *objects) setPortion(i int32, s int, p portion) {
	if p == full {
		*o.flags(i) |= flagFull0 << s
	} else {
		*o.flags(i) &^= flagFull0 << s
	}
}

// where returns the slot holding chunk d, or -1.
func (o *objects) where(i int32, d int32) int {
	pg, j := o.at(i)
	for s := 0; s < o.nw(i); s++ {
		if pg.chunk[j][s] == d {
			return s
		}
	}
	return -1
}

// addWhere records chunk d holding portion p of the object.
func (o *objects) addWhere(i int32, d int32, p portion) {
	n := o.nw(i)
	if n >= 2 {
		panic(fmt.Sprintf("core: object %d associated with more than two chunks", i))
	}
	o.setChunk(i, n, d)
	o.setPortion(i, n, p)
	o.setNW(i, n+1)
}

// delWhere removes chunk d from the object's slots, moving the last
// slot into the freed one.
func (o *objects) delWhere(i int32, d int32) {
	s := o.where(i, d)
	if s < 0 {
		return
	}
	last := o.nw(i) - 1
	o.setChunk(i, s, o.chunk(i, last))
	o.setPortion(i, s, o.portionAt(i, last))
	o.setNW(i, last)
}

// contribution returns the words the object's slot s contributes to
// Σ_{o∈O_D}|o| of that slot's chunk.
func (o *objects) contribution(i int32, s int) word.Size {
	if o.portionAt(i, s) == half {
		return o.size(i) / 2
	}
	return o.size(i)
}
