package core

import (
	"fmt"

	"compaction/internal/heap"
	"compaction/internal/word"
)

// Audit verifies the structural invariants of the stage-II association
// (Claim 4.15 of the paper and the E-set rules) and returns the first
// violation found. It is meant to be called from tests between rounds;
// it returns nil before stage II begins.
//
// Checked invariants:
//
//  1. the sets O_D are consistent: every association entry appears in
//     the object's chunk slots and vice versa, once;
//  2. every object is associated with exactly one chunk (full) or two
//     chunks (one half each);
//  3. every LIVE associated object physically intersects each chunk it
//     is associated with;
//  4. chunks in E have no associated objects;
//  5. association sums of non-empty chunks are positive.
func (p *PF) Audit() error {
	if !p.stage2 {
		return nil
	}
	t := p.table
	cs := t.chunkSize()

	// 1, 4 & 5: chunk-side consistency.
	seen := make(map[int32][]int32)
	for i := range t.head {
		d := int32(i)
		if t.head[d] < 0 {
			continue
		}
		if t.inE(d) {
			return fmt.Errorf("core audit: chunk %d is in E but has entries", d)
		}
		var sum word.Size
		for n := t.head[d]; n >= 0; n = t.nodes[n].next {
			id := t.nodes[n].id
			slot := t.objs.where(id, d)
			if slot < 0 {
				return fmt.Errorf("core audit: chunk %d entry for object %d missing from its chunk slots", d, id)
			}
			ds := seen[id]
			if len(ds) > 0 && ds[len(ds)-1] == d {
				return fmt.Errorf("core audit: object %d has two entries in chunk %d", id, d)
			}
			seen[id] = append(ds, d)
			sum += t.objs.contribution(id, slot)
			if t.objs.live(id) {
				chunkSpan := heap.Span{Addr: word.Addr(d) * cs, Size: cs}
				if s := t.objs.span(id); !s.Overlaps(chunkSpan) {
					return fmt.Errorf("core audit: live object %d %v associated with chunk %d %v it does not intersect (Claim 4.15)",
						id, s, d, chunkSpan)
				}
			}
		}
		if sum <= 0 {
			return fmt.Errorf("core audit: chunk %d has non-positive association sum %d", d, sum)
		}
	}

	// 2: object-side consistency against the chunk slots.
	for id, ds := range seen {
		if len(ds) > 2 {
			return fmt.Errorf("core audit: object %d associated with %d chunks", id, len(ds))
		}
		if len(ds) == 2 {
			for _, d := range ds {
				if p, _ := t.entry(d, id); p != half {
					return fmt.Errorf("core audit: object %d in two chunks but not as halves", id)
				}
			}
		}
	}
	for id := int32(0); id < p.obj.n; id++ {
		if nw := p.obj.nw(id); nw != len(seen[id]) {
			return fmt.Errorf("core audit: object %d chunk slots list %d chunks, chunks show %d", id, nw, len(seen[id]))
		}
	}
	return nil
}
