package core

import (
	"fmt"
	"slices"

	"compaction/internal/heap"
	"compaction/internal/word"
)

// entNode is one association entry in the pooled chunk lists: the
// object and the next entry of the same chunk (-1 ends the list).
type entNode struct {
	id, next int32
}

// Bits of chunkTable.state.
const (
	chunkInE    uint8 = 1 << 0 // middle chunk in E
	chunkQueued uint8 = 1 << 1 // on the trim work list
)

// chunkTable maintains the paper's association of objects with aligned
// chunks during the second stage: the sets O_D, the set E of middle
// chunks, and the step-change merging. Chunk k at step i spans
// [k·2^i, (k+1)·2^i).
//
// Storage is pointer-free and sized by the highest chunk index used
// (the heap's high-water mark), not by the heap's capacity: head[d]
// starts chunk d's list of entries in the node pool, and each entry's
// portion lives on the object (objects.flags). Entry order within a
// chunk is arbitrary and never load-bearing — every consumer either
// sums or sorts by a total order.
type chunkTable struct {
	step int // current step i; chunk size is 2^i
	ell  int // density exponent ℓ; the target density is 2^-ℓ
	objs *objects

	head  []int32 // per chunk: first entry node, or -1
	state []uint8 // per chunk: chunkInE, chunkQueued
	nodes []entNode
	free  int32 // head of the free-node list, or -1

	// Reused scratch: the covered-chunk list, and trim's FIFO work
	// queue, a ring over work[qHead:qHead+qLen]. A chunk is queued at
	// most once at a time, so the ring never holds more than one slot
	// per chunk.
	coverBuf    []int64
	work        []int32
	qHead, qLen int

	// Diagnostics for the Claim 4.16 accounting: accumulated prior
	// potential of chunks overwritten by placeNew, split by whether it
	// came from dead entries, E membership, or live entries.
	reusedDeadU, reusedEU word.Size
}

func newChunkTable(step, ell int, objs *objects) *chunkTable {
	return &chunkTable{step: step, ell: ell, objs: objs, free: -1}
}

// chunkSize returns the current chunk size 2^step.
func (t *chunkTable) chunkSize() word.Size { return word.Pow2(t.step) }

// ensure makes chunk d addressable.
func (t *chunkTable) ensure(d int32) {
	for int(d) >= len(t.head) {
		t.head = append(t.head, -1)
		t.state = append(t.state, 0)
	}
}

// chunkIndex converts a chunk number to a table index.
func chunkIndex(d int64) int32 {
	if d < 0 || d > maxLink {
		panic(fmt.Sprintf("core: chunk %d outside the 32-bit range", d))
	}
	return int32(d)
}

func (t *chunkTable) inE(d int32) bool {
	return int(d) < len(t.state) && t.state[d]&chunkInE != 0
}

// entries returns the first entry node of chunk d, or -1.
func (t *chunkTable) entries(d int32) int32 {
	if int(d) < len(t.head) {
		return t.head[d]
	}
	return -1
}

// sum returns Σ_{o∈O_D}|o| for chunk d, counting dead (compacted-away)
// entries too: association is only removed when P_F de-allocates the
// object or a new object is placed on the chunk.
func (t *chunkTable) sum(d int32) word.Size {
	var s word.Size
	for n := t.entries(d); n >= 0; n = t.nodes[n].next {
		s += t.contribution(t.nodes[n].id, d)
	}
	return s
}

// entry returns the object's portion in chunk d, if associated.
func (t *chunkTable) entry(d int32, id int32) (portion, bool) {
	if s := t.objs.where(id, d); s >= 0 {
		return t.objs.portionAt(id, s), true
	}
	return 0, false
}

// reserve sizes the table for chunks 0..d and n more entries.
func (t *chunkTable) reserve(d int32, n int) {
	t.head = slices.Grow(t.head, max(0, int(d)+1-len(t.head)))
	t.state = slices.Grow(t.state, max(0, int(d)+1-len(t.state)))
	t.nodes = slices.Grow(t.nodes, n)
}

// push links a new entry for the object at the head of chunk d.
func (t *chunkTable) push(d, id int32) {
	t.ensure(d)
	n := t.free
	if n >= 0 {
		t.free = t.nodes[n].next
	} else {
		n = int32(len(t.nodes))
		t.nodes = append(t.nodes, entNode{})
	}
	t.nodes[n] = entNode{id: id, next: t.head[d]}
	t.head[d] = n
}

// release returns node n to the free list.
func (t *chunkTable) release(n int32) {
	t.nodes[n].next = t.free
	t.free = n
}

// associateFull records a whole-object association (line 9 of
// Algorithm 1 and merged halves).
func (t *chunkTable) associateFull(id int32, d int64) {
	t.addEntry(id, chunkIndex(d), full)
}

func (t *chunkTable) addEntry(id, d int32, p portion) {
	if s := t.objs.where(id, d); s >= 0 {
		if t.objs.portionAt(id, s) == half && p == half {
			// Two halves of the same object in one chunk merge into a
			// full association, a single entry.
			t.objs.setPortion(id, s, full)
			return
		}
		panic(fmt.Sprintf("core: duplicate association of object %d with chunk %d", id, d))
	}
	t.push(d, id)
	t.objs.addWhere(id, d, p)
	t.state[d] &^= chunkInE // an associated chunk is never a middle chunk
}

// prune unlinks the entries of chunk d whose object no longer lists d
// among its slots. Removal is two-phase: callers drop the slot on the
// object (objects.delWhere), then prune the chunk once.
func (t *chunkTable) prune(d int32) {
	prev := int32(-1)
	for n := t.entries(d); n >= 0; {
		next := t.nodes[n].next
		if t.objs.where(t.nodes[n].id, d) >= 0 {
			prev = n
		} else {
			if prev < 0 {
				t.head[d] = next
			} else {
				t.nodes[prev].next = next
			}
			t.release(n)
		}
		n = next
	}
}

// otherChunk returns the chunk holding the other half of the object,
// given one of its chunks.
func (t *chunkTable) otherChunk(id, d int32) (int32, bool) {
	for s := 0; s < t.objs.nw(id); s++ {
		if c := t.objs.chunk(id, s); c != d {
			return c, true
		}
	}
	return 0, false
}

// doubleStep advances to step+1: each pair of adjacent chunks becomes
// one chunk (O_D = O_D1 ∪ O_D2, line 12), halves of the same object
// that meet merge into full entries, and E is cleared. The rebuild is
// in place: chunk nd takes over the lists of chunks 2nd and 2nd+1,
// which no smaller nd has read or written.
//
// Relabelling walks old chunks in ascending order, so an object's
// lower slot is always renamed before its upper one is reached; the
// upper slot then finds the lower one already holding nd exactly when
// the two halves meet.
func (t *chunkTable) doubleStep() {
	t.step++
	n := (len(t.head) + 1) / 2
	for nd := int32(0); int(nd) < n; nd++ {
		head, tail := int32(-1), int32(-1)
		for old := 2 * nd; old <= 2*nd+1 && int(old) < len(t.head); old++ {
			for e := t.head[old]; e >= 0; {
				next := t.nodes[e].next
				id := t.nodes[e].id
				s := t.objs.where(id, old)
				if o := t.objs.where(id, nd); o >= 0 && o != s {
					// The other half already moved into nd: merge.
					t.objs.setPortion(id, o, full)
					t.objs.delWhere(id, old)
					t.release(e)
				} else {
					t.objs.setChunk(id, s, nd)
					t.nodes[e].next = -1
					if tail < 0 {
						head = e
					} else {
						t.nodes[tail].next = e
					}
					tail = e
				}
				e = next
			}
		}
		t.head[nd] = head
	}
	t.head = t.head[:n]
	t.state = t.state[:n]
	clear(t.state)
}

// placeNew implements the association updates of line 14: the newly
// allocated object fully covers chunks d1, d2, d3; the first half of
// the object is associated with d1, the second half with d3, and d2
// becomes a middle chunk in E. Any previous associations of those
// chunks are discarded — their objects must all be dead (the chunks
// had to be physically empty for the placement), which is asserted.
func (t *chunkTable) placeNew(id int32, d1, d2, d3 int64) {
	cs := t.chunkSize()
	ds := [3]int32{chunkIndex(d1), chunkIndex(d2), chunkIndex(d3)}
	for _, d := range ds {
		t.ensure(d)
		if t.inE(d) {
			t.reusedEU += cs
		} else if s := t.sum(d); s > 0 {
			v := s << uint(t.ell)
			if v > cs {
				v = cs
			}
			t.reusedDeadU += v
		}
		for n := t.head[d]; n >= 0; {
			next := t.nodes[n].next
			prev := t.nodes[n].id
			if t.objs.live(prev) {
				panic(fmt.Sprintf("core: live object %d still associated with overwritten chunk %d", prev, d))
			}
			t.objs.delWhere(prev, d)
			t.release(n)
			n = next
		}
		t.head[d] = -1
		t.state[d] &^= chunkInE
	}
	t.addEntry(id, ds[0], half)
	t.addEntry(id, ds[2], half)
	t.state[ds[1]] |= chunkInE
}

// coveredChunks returns the indices of the chunks fully covered by
// span s at the current step, in address order. The returned slice
// aliases a scratch buffer valid until the next call.
func (t *chunkTable) coveredChunks(s heap.Span) []int64 {
	cs := t.chunkSize()
	first := word.AlignUp(s.Addr, cs) / cs
	out := t.coverBuf[:0]
	for k := first; (k+1)*cs <= s.End(); k++ {
		out = append(out, k)
	}
	t.coverBuf = out
	return out
}

// trim implements line 13 for every chunk: free as many objects from
// O_D as possible while Σ_{o∈O_D}|o| stays at least 2^(step−ℓ). When a
// half is freed, the object's association transfers to the chunk
// holding the other half, and that chunk is re-evaluated. Chunks whose
// sum is already at or below the threshold are left alone (freeing
// from them would let the potential function drop, breaking Claim
// 4.16). Chunks are visited in ascending order, then re-evaluated in
// the order they received a transferred half. The IDs of physically
// freed objects are appended to frees, which is returned.
func (t *chunkTable) trim(frees []heap.ObjectID) []heap.ObjectID {
	threshold := word.Pow2(t.step - t.ell)
	if cap(t.work) < len(t.head) {
		t.work = make([]int32, len(t.head))
	}
	t.work = t.work[:len(t.head)]
	t.qHead, t.qLen = 0, 0
	for d, h := range t.head {
		if h >= 0 {
			t.enqueue(int32(d))
		}
	}
	for t.qLen > 0 {
		d := t.work[t.qHead]
		t.qHead = (t.qHead + 1) % len(t.work)
		t.qLen--
		t.state[d] &^= chunkQueued
		frees = t.trimChunk(d, threshold, frees)
	}
	return frees
}

// enqueue appends chunk d to trim's work queue unless it is queued.
func (t *chunkTable) enqueue(d int32) {
	if t.state[d]&chunkQueued != 0 {
		return
	}
	t.state[d] |= chunkQueued
	t.work[(t.qHead+t.qLen)%len(t.work)] = d
	t.qLen++
}

// trimChunk processes one chunk, queueing the chunks that received a
// transferred half for re-evaluation.
func (t *chunkTable) trimChunk(d int32, threshold word.Size, frees []heap.ObjectID) []heap.ObjectID {
	sum := word.Size(0)
	for n := t.head[d]; n >= 0; n = t.nodes[n].next {
		sum += t.contribution(t.nodes[n].id, d)
	}
	// Deterministic order: largest contribution first, ties by id.
	t.head[d] = t.sortEntries(t.head[d], d)
	removed := false
	for n := t.head[d]; n >= 0; n = t.nodes[n].next {
		id := t.nodes[n].id
		if !t.objs.live(id) {
			continue // dead entries hold density but cannot be freed
		}
		s := t.objs.where(id, d)
		c := t.objs.contribution(id, s)
		if sum-c < threshold {
			// Freeing would drop the chunk below the density floor
			// 2^-ℓ; line 13 keeps it (this is what makes evacuation
			// unprofitable for the manager and keeps u(t) from ever
			// decreasing, Claim 4.16).
			continue
		}
		sum -= c
		removed = true
		if t.objs.portionAt(id, s) == full {
			t.objs.delWhere(id, d)
			t.objs.kill(id)
			frees = append(frees, heap.ObjectID(id))
			continue
		}
		// Freeing a half: transfer the object to the chunk holding the
		// other half and re-evaluate that chunk.
		other, ok := t.otherChunk(id, d)
		if !ok {
			panic(fmt.Sprintf("core: half object %d has no other chunk", id))
		}
		t.objs.delWhere(id, d)
		t.objs.setPortion(id, t.objs.where(id, other), full)
		t.enqueue(other)
	}
	if removed {
		t.prune(d)
	}
	return frees
}

// contribution returns what the object's entry in chunk d contributes
// to the chunk's sum.
func (t *chunkTable) contribution(id, d int32) word.Size {
	return t.objs.contribution(id, t.objs.where(id, d))
}

// before reports whether entry a precedes entry b of chunk d in trim
// order: larger contribution first, ties by smaller ID.
func (t *chunkTable) before(a, b, d int32) bool {
	ia, ib := t.nodes[a].id, t.nodes[b].id
	if ca, cb := t.contribution(ia, d), t.contribution(ib, d); ca != cb {
		return ca > cb
	}
	return ia < ib
}

// sortEntries merge-sorts the list of chunk d's entries that starts at
// node h into trim order, in place, and returns its new first node.
func (t *chunkTable) sortEntries(h, d int32) int32 {
	if h < 0 || t.nodes[h].next < 0 {
		return h
	}
	// Split after the middle node.
	mid, fast := h, t.nodes[h].next
	for fast >= 0 && t.nodes[fast].next >= 0 {
		mid, fast = t.nodes[mid].next, t.nodes[t.nodes[fast].next].next
	}
	b := t.nodes[mid].next
	t.nodes[mid].next = -1
	a := t.sortEntries(h, d)
	b = t.sortEntries(b, d)
	head, tail := int32(-1), int32(-1)
	for a >= 0 || b >= 0 {
		n := b
		if b < 0 || (a >= 0 && t.before(a, b, d)) {
			n = a
		}
		if n == a {
			a = t.nodes[a].next
		} else {
			b = t.nodes[b].next
		}
		if tail < 0 {
			head = n
		} else {
			t.nodes[tail].next = n
		}
		tail = n
	}
	return head
}

// potential computes the paper's potential function u(t) restricted to
// the current partition: Σ_D u_D(t) − n/4, where u_D = 2^i for middle
// chunks in E and min(2^ℓ·Σ_{o∈O_D}|o|, 2^i) otherwise (Definitions
// 4.3 and 4.4). It lower-bounds the heap size the manager has used.
func (t *chunkTable) potential(n word.Size) word.Size {
	cs := t.chunkSize()
	var u word.Size
	for d := range t.head {
		if t.state[d]&chunkInE != 0 {
			u += cs
			continue
		}
		v := t.sum(int32(d)) << uint(t.ell)
		if v > cs {
			v = cs
		}
		u += v
	}
	return u - n/4
}
