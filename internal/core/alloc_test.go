package core

import (
	"runtime"
	"testing"

	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// allocConfig gives P_F seven stage-II steps (ℓ = 2, steps 4..10): one
// to enter the stage, one to warm up, five to measure.
func allocConfig() sim.Config {
	return sim.Config{M: 1 << 16, N: 1 << 12, C: 16, Pow2Only: true}
}

// bumpDriver plays the engine for P_F without a manager: it places
// every object above the last one and moves (so P_F frees) the first
// object of each stage-II round, leaving a dead association entry.
type bumpDriver struct {
	pf   *PF
	view sim.View
	next heap.ObjectID
	top  word.Addr
}

func (d *bumpDriver) round() {
	_, allocs, _ := d.pf.Step(&d.view)
	first := d.next + 1
	for _, size := range allocs {
		d.next++
		d.pf.Placed(d.next, heap.Span{Addr: d.top, Size: size})
		d.top += size
	}
	d.view.HighWater = d.top
	if d.pf.stage2 && len(allocs) > 0 {
		s := d.pf.obj.span(int32(first))
		d.pf.Moved(first, s, heap.Span{Addr: d.top, Size: s.Size})
	}
	d.view.Round++
}

// TestStage2StepsAreAllocFree pins the claim that P_F's stage-II
// bookkeeping is allocation-free in steady state: once the stage is
// entered and one step has warmed the scratch buffers, every further
// step (trim, step change, placements) allocates nothing.
func TestStage2StepsAreAllocFree(t *testing.T) {
	d := &bumpDriver{pf: NewPF(Options{}), view: sim.View{Config: allocConfig()}}
	d.round() // resolves ℓ
	for !d.pf.stage2 {
		d.round()
	}
	last := Rounds(allocConfig().N) - 1
	const runs = 5
	if left := last - d.view.Round + 1; left < runs+1 {
		t.Fatalf("only %d stage-II steps left after entry, need %d", left, runs+1)
	}
	if n := testing.AllocsPerRun(runs, d.round); n != 0 {
		t.Errorf("stage-II step allocates %.0f times, want 0", n)
	}
	if err := d.pf.Audit(); err != nil {
		t.Fatal(err)
	}
}

// allocMeter wraps P_F and counts the heap allocations made inside its
// Step, Placed and Moved calls once stage II has run its first two
// steps, against a real manager under the engine.
type allocMeter struct {
	pf      *PF
	from    int // first measured round
	round   int
	mallocs uint64
	ms      runtime.MemStats
}

func (a *allocMeter) measure(f func()) {
	if a.round < a.from {
		f()
		return
	}
	runtime.ReadMemStats(&a.ms)
	before := a.ms.Mallocs
	f()
	runtime.ReadMemStats(&a.ms)
	a.mallocs += a.ms.Mallocs - before
}

func (a *allocMeter) Name() string { return a.pf.Name() }

func (a *allocMeter) Step(v *sim.View) (frees []heap.ObjectID, allocs []word.Size, done bool) {
	a.round = v.Round
	a.measure(func() { frees, allocs, done = a.pf.Step(v) })
	return frees, allocs, done
}

func (a *allocMeter) Placed(id heap.ObjectID, s heap.Span) {
	a.measure(func() { a.pf.Placed(id, s) })
}

func (a *allocMeter) Moved(id heap.ObjectID, from, to heap.Span) (freed bool) {
	a.measure(func() { freed = a.pf.Moved(id, from, to) })
	return freed
}

// TestStage2IsAllocFreeUnderManagers runs the same check through the
// engine, against managers that never move, move, and evacuate, so
// chunk reuse with dead entries is covered too.
func TestStage2IsAllocFreeUnderManagers(t *testing.T) {
	for _, name := range []string{"first-fit", "threshold", "bp-compact"} {
		t.Run(name, func(t *testing.T) {
			mgr, err := mm.New(name)
			if err != nil {
				t.Fatal(err)
			}
			a := &allocMeter{pf: NewPF(Options{}), from: 6} // 2ℓ+2 with ℓ = 2
			e, err := sim.NewEngine(allocConfig(), a, mgr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if a.pf.Ell() != 2 {
				t.Fatalf("ℓ = %d, the measured window assumes 2", a.pf.Ell())
			}
			if a.mallocs != 0 {
				t.Errorf("P_F allocated %d times in stage II after warm-up", a.mallocs)
			}
		})
	}
}
