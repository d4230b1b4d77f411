// Package core implements the primary contribution of Cohen & Petrank
// (PLDI 2013): the adversarial program P_F (Algorithm 1) that forces
// every c-partial memory manager to use a heap of at least M·h words
// (Theorem 1, computed in internal/bounds), together with the
// association and potential-function machinery of Section 4.
//
// P_F runs in two stages:
//
//   - Stage I (steps 0..ℓ) is Robson's bad program adapted to
//     compaction with ghost objects: any object the manager moves is
//     freed immediately but continues to be counted at its original
//     address, so the de-allocation decisions match the compaction-free
//     execution of the reduction theorem (Claim 4.8). Steps ℓ+1..2ℓ−1
//     are null steps.
//   - Stage II (steps 2ℓ..log2(n)−2) maintains, for every aligned
//     chunk of size 2^i, an association set O_D with density at least
//     2^-ℓ > 1/c, so evacuating a chunk always costs the manager more
//     compaction budget than the allocation that reuses it refunds. At
//     each step it frees as much associated space as the density floor
//     allows (line 13) and allocates ⌊x·M·2^{-i-2}⌋ objects of size
//     2^{i+2} (line 14), each claiming three fresh chunks.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"compaction/internal/adversary"
	"compaction/internal/bounds"
	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// Options configure P_F. The zero value selects the paper's algorithm
// with the bound-maximizing ℓ; the Disable* switches implement the
// ablations studied in the benchmarks.
type Options struct {
	// Ell fixes the density exponent ℓ; 0 picks the ℓ that maximizes
	// the Theorem 1 bound for the run's (M, n, c).
	Ell int
	// DisableStage1 skips Robson's first stage (ablation).
	DisableStage1 bool
	// DisableDensity makes stage II free greedily with no density
	// floor (ablation: chunks become cheap to evacuate).
	DisableDensity bool
	// DisableGhosts makes stage I forget compacted objects instead of
	// keeping them as ghosts (ablation: compaction perturbs Robson's
	// offsets).
	DisableGhosts bool
}

// PF is the paper's adversary program.
type PF struct {
	opts Options

	// Parameters resolved at the first Step call.
	initialized bool
	m, n        word.Size
	c           int64
	ell         int
	bigL        int     // log2(n)
	x           float64 // per-step allocation fraction of line 14
	hEll        float64 // Theorem 1 bound at the chosen ℓ

	round int
	f     word.Addr // Robson offset f_i
	// obj holds every object P_F has been told about, indexed by
	// ObjectID.
	obj    objects
	liveW  word.Size // live words (engine ground truth mirror)
	table  *chunkTable
	stage2 bool

	// Reused per-step scratch buffers. The engine consumes frees within
	// the step and the trace recorder copies allocs, so both may be
	// overwritten by the next step.
	allocBuf []word.Size
	freeBuf  []heap.ObjectID

	// uFirst is the potential right after the line-9 association, the
	// quantity Lemma 4.5 bounds from below (exposed for validation).
	uFirst word.Size
}

var _ sim.Program = (*PF)(nil)

// NewPF builds the adversary.
func NewPF(opts Options) *PF {
	return &PF{opts: opts}
}

// fillAllocs returns a reused buffer holding count copies of size.
func (p *PF) fillAllocs(count, size word.Size) []word.Size {
	buf := p.allocBuf[:0]
	for i := word.Size(0); i < count; i++ {
		buf = append(buf, size)
	}
	p.allocBuf = buf
	return buf
}

// Name implements sim.Program.
func (p *PF) Name() string { return "pf" }

// Ell returns the density exponent in use (after the first step).
func (p *PF) Ell() int { return p.ell }

// TargetH returns the Theorem 1 waste factor h(M, n, c, ℓ) the run is
// designed to force (after the first step).
func (p *PF) TargetH() float64 { return p.hEll }

// Rounds returns the total number of engine rounds P_F uses for a
// given maximum object size: steps 0..log2(n)−2.
func Rounds(n word.Size) int { return word.Log2(n) - 1 }

func (p *PF) init(v *sim.View) error {
	p.m, p.n, p.c = v.Config.M, v.Config.N, v.Config.C
	p.bigL = word.Log2(p.n)
	if !v.Config.Pow2Only {
		return fmt.Errorf("core: P_F requires a P2 run (Pow2Only)")
	}
	params := bounds.Params{M: p.m, N: p.n, C: p.c}
	if err := params.Validate(); err != nil {
		return fmt.Errorf("core: %v", err)
	}
	if p.opts.Ell > 0 {
		p.ell = p.opts.Ell
		h, err := bounds.Theorem1Ell(params, p.ell)
		if err != nil {
			return err
		}
		p.hEll = h
	} else {
		h, ell, err := bounds.Theorem1(params)
		if err != nil {
			return err
		}
		if ell == 0 {
			return fmt.Errorf("core: no admissible ℓ for M=%d n=%d c=%d", p.m, p.n, p.c)
		}
		p.ell, p.hEll = ell, h
	}
	p.x = (1 - p.hEll/float64(word.Pow2(p.ell))) / float64(p.ell+1)
	if p.x <= 0 {
		return fmt.Errorf("core: non-positive allocation fraction x=%g (h=%g, ℓ=%d)", p.x, p.hEll, p.ell)
	}
	if !p.opts.DisableStage1 {
		// Pre-size the per-run buffers to their stage-I peaks (step 0
		// allocates M unit objects) so the hot loop never re-grows them.
		p.allocBuf = make([]word.Size, 0, p.m)
		p.freeBuf = make([]heap.ObjectID, 0, p.m/2+1)
	}
	p.initialized = true
	return nil
}

// Step implements sim.Program, mapping engine rounds to the steps of
// Algorithm 1: round r is step r; stage I covers steps 0..ℓ, steps
// ℓ+1..2ℓ−1 are null, and stage II covers steps 2ℓ..log2(n)−2.
func (p *PF) Step(v *sim.View) ([]heap.ObjectID, []word.Size, bool) {
	if !p.initialized {
		if err := p.init(v); err != nil {
			panic(err)
		}
	}
	step := p.round
	p.round++
	last := p.bigL - 2
	done := step >= last
	switch {
	case step < 2*p.ell:
		if p.opts.DisableStage1 {
			return nil, nil, done
		}
		frees, allocs := p.stage1(step)
		return frees, allocs, done
	default:
		if !p.stage2 {
			p.enterStage2(v.HighWater)
		}
		if p.table.step < step {
			p.table.doubleStep()
			if p.table.step != step {
				panic(fmt.Sprintf("core: step skew: table at %d, program at %d", p.table.step, step))
			}
		}
		frees := p.stage2Frees()
		allocs := p.stage2Allocs(step)
		return frees, allocs, done
	}
}

// stage1 runs step i of the Robson-with-ghosts stage.
func (p *PF) stage1(step int) ([]heap.ObjectID, []word.Size) {
	switch {
	case step == 0:
		p.f = 0
		return nil, p.fillAllocs(p.m, 1)
	case step <= p.ell:
		align := word.Pow2(step)
		p.f = p.chooseOffset(p.f, align)
		frees := p.freeBuf[:0]
		var counted word.Size // live + ghost words that remain
		for id := int32(0); id < p.obj.n; id++ {
			if !p.obj.tracked(id) {
				continue
			}
			if adversary.Occupying(p.obj.span(id), p.f, align) {
				counted += p.obj.size(id)
				continue
			}
			if p.obj.live(id) {
				frees = append(frees, heap.ObjectID(id))
				p.liveW -= p.obj.size(id)
			}
			// Non-occupying ghosts disappear from consideration.
			p.obj.untrack(id)
		}
		// Free in address order; IDs make the order total.
		slices.SortFunc(frees, func(a, b heap.ObjectID) int {
			if c := cmp.Compare(p.obj.addr(int32(a)), p.obj.addr(int32(b))); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		p.freeBuf = frees
		count := (p.m - counted) / align
		return frees, p.fillAllocs(count, align)
	default:
		return nil, nil // null steps ℓ+1..2ℓ−1
	}
}

// chooseOffset is adversary.ChooseOffset over the live objects and
// ghosts: keep fPrev unless fPrev + align/2 traps more waste
// Σ (align − |o|) in f-occupying objects.
func (p *PF) chooseOffset(fPrev word.Addr, align word.Size) word.Addr {
	alt := fPrev + align/2
	var wPrev, wAlt word.Size
	for id := int32(0); id < p.obj.n; id++ {
		if !p.obj.tracked(id) {
			continue
		}
		s := p.obj.span(id)
		if adversary.Occupying(s, fPrev, align) {
			wPrev += align - s.Size
		}
		if adversary.Occupying(s, alt, align) {
			wAlt += align - s.Size
		}
	}
	if wAlt > wPrev {
		return alt
	}
	return fPrev
}

// stage2Count is the uncapped object count of line 14 at a step:
// ⌊x·M·2^{−i−2}⌋.
func (p *PF) stage2Count(step int) word.Size {
	return word.Size(p.x * float64(p.m) / float64(word.Pow2(step+2)))
}

// enterStage2 performs line 9: associate every remaining live object
// with the chunk (size 2^{2ℓ−1}) containing its f_ℓ-occupying word.
// It also reserves room for every object stage II can allocate, so
// the stage's bookkeeping never reallocates.
//
// Ghosts are dropped here, not associated: Definition 4.1 says ghost
// objects "are no longer considered by PF in subsequent steps". This
// matters for the bound — if ghosts entered O_D as dead mass, line 13
// could free the live objects colocated with them and hand the manager
// reusable chunks that were never paid for with stage-II compaction,
// breaking Proposition 4.19 (we verified exactly this leak against the
// threshold evacuator before fixing it; see TestLemmaAccounting).
func (p *PF) enterStage2(hw word.Addr) {
	p.stage2 = true
	start := 2*p.ell - 1
	if p.opts.DisableStage1 || start < 0 {
		start = 2 * p.ell
	}
	p.table = newChunkTable(start, p.ell, &p.obj)
	// Size the stage for its peak: chunks up to the high-water mark,
	// one entry per survivor and two per new object, and the largest
	// line-14 request (the first).
	var news word.Size
	for step := 2 * p.ell; step <= p.bigL-2; step++ {
		news += p.stage2Count(step)
	}
	p.obj.reserve(int(news) + 1)
	p.table.reserve(int32(hw/p.table.chunkSize()), p.survivors()+2*int(news))
	p.allocBuf = make([]word.Size, 0, p.stage2Count(2*p.ell))
	if start == 2*p.ell-1 {
		p.associateSurvivors()
		p.uFirst = p.table.potential(p.n)
	}
}

// survivors counts the live objects.
func (p *PF) survivors() int {
	k := 0
	for id := int32(0); id < p.obj.n; id++ {
		if p.obj.live(id) {
			k++
		}
	}
	return k
}

// associateSurvivors is line 9 proper.
func (p *PF) associateSurvivors() {
	alignL := word.Pow2(p.ell)
	cs := p.table.chunkSize()
	for id := int32(0); id < p.obj.n; id++ {
		if p.obj.ghost(id) {
			p.obj.untrack(id) // ghosts disappear at the stage boundary
			continue
		}
		if !p.obj.live(id) {
			continue
		}
		s := p.obj.span(id)
		if !adversary.Occupying(s, p.f, alignL) {
			// Everything surviving stage I is f_ℓ-occupying by
			// construction; defensive check.
			panic(fmt.Sprintf("core: stage-I survivor %d is not f_ℓ-occupying", id))
		}
		w := adversary.OccupyingWord(s, p.f, alignL)
		p.table.associateFull(id, w/cs)
	}
}

// UFirst returns u(t_first), the potential right after the line-9
// association (0 before stage II).
func (p *PF) UFirst() word.Size { return p.uFirst }

// stage2Frees runs line 13 (the density-preserving trim).
func (p *PF) stage2Frees() []heap.ObjectID {
	t := p.table
	frees := p.freeBuf[:0]
	if p.opts.DisableDensity {
		// Ablation: free every live associated object outright, and
		// remove its associations (P_F de-allocated it).
		for d := range t.head {
			for n := t.head[d]; n >= 0; n = t.nodes[n].next {
				if id := t.nodes[n].id; p.obj.live(id) {
					p.obj.kill(id)
					p.obj.setNW(id, 0)
					frees = append(frees, heap.ObjectID(id))
				}
			}
		}
		for d := range t.head {
			t.prune(int32(d))
		}
		slices.Sort(frees)
	} else {
		frees = t.trim(frees)
	}
	for _, id := range frees {
		p.liveW -= p.obj.size(int32(id))
	}
	p.freeBuf = frees
	return frees
}

// stage2Allocs runs line 14: ⌊x·M·2^{−i−2}⌋ objects of size 2^{i+2},
// capped by the M-bound.
func (p *PF) stage2Allocs(step int) []word.Size {
	size := word.Pow2(step + 2)
	count := p.stage2Count(step)
	if maxByM := (p.m - p.liveW) / size; count > maxByM {
		count = maxByM
	}
	return p.fillAllocs(count, size)
}

// Placed implements sim.Program.
func (p *PF) Placed(id heap.ObjectID, s heap.Span) {
	i := p.obj.add(id, s)
	p.liveW += s.Size
	if !p.stage2 {
		return
	}
	covered := p.table.coveredChunks(s)
	if len(covered) < 3 {
		panic(fmt.Sprintf("core: stage-II object %v covers %d chunks, need 3", s, len(covered)))
	}
	p.table.placeNew(i, covered[0], covered[1], covered[2])
}

// Moved implements sim.Program: compacted objects are freed
// immediately. In stage I they persist as ghosts at their original
// address; in stage II their associations persist as dead entries.
func (p *PF) Moved(id heap.ObjectID, from, _ heap.Span) bool {
	if id < 0 || id >= heap.ObjectID(p.obj.n) || !p.obj.live(int32(id)) {
		panic(fmt.Sprintf("core: move of untracked or dead object %d", id))
	}
	i := int32(id)
	p.obj.kill(i)
	p.liveW -= p.obj.size(i)
	if !p.stage2 {
		if p.opts.DisableGhosts {
			p.obj.untrack(i)
		} else {
			p.obj.makeGhost(i, from.Addr) // counted at its pre-move address
		}
	}
	return true
}

// Potential returns the paper's potential function u(t) over the
// current stage-II partition, a certified lower bound on the heap size
// used so far. It returns 0 before stage II begins.
func (p *PF) Potential() word.Size {
	if !p.stage2 {
		return 0
	}
	return p.table.potential(p.n)
}
