package main

import (
	"fmt"
	"time"

	"compaction/internal/bounds"
	"compaction/internal/check"
	"compaction/internal/core"
	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// pfManagers are the two managers the paper's experiment runs P_F
// against: one that never moves and one that spends its budget.
var pfManagers = []string{"first-fit", "threshold"}

// pfStride is the referee's sampling stride, as in the paper-scale
// smoke test: the exact referee is O(live) per operation.
const pfStride = 64

// pfPaper runs the paper's adversary P_F under the sampled referee:
// one job is P_F against first-fit and then threshold, one cell each.
type pfPaper struct {
	cfg   sim.Config
	warm  sim.Config // the tiny instance setup runs once
	floor float64    // Theorem 1 bound, in words
	want  map[string]string

	hwm        map[string][]float64 // per-manager peak RSS per cell
	rec        *placementLog        // first-fit placement stream (traced)
	violations int                  // referee violations in traced cells
}

func newPFPaper(tiny bool) *pfPaper {
	w := &pfPaper{
		cfg:  sim.Config{M: 1 << 20, N: 1 << 12, C: 16, Pow2Only: true},
		warm: sim.Config{M: 1 << 12, N: 1 << 6, C: 16, Pow2Only: true},
		want: pfDigests,
		hwm:  map[string][]float64{},
	}
	if tiny {
		w.cfg = sim.Config{M: 1 << 14, N: 1 << 8, C: 16, Pow2Only: true}
		w.want = pfTinyDigests
	}
	return w
}

func (w *pfPaper) setup() error {
	h, _, err := bounds.Theorem1(bounds.Params{M: w.cfg.M, N: w.cfg.N, C: w.cfg.C})
	if err != nil {
		return err
	}
	w.floor = h * float64(w.cfg.M)
	// Warm the code paths once at a tiny size.
	for _, name := range pfManagers {
		if _, err := check.RunSampled(w.warm, core.NewPF(core.Options{}), name, pfStride); err != nil {
			return err
		}
	}
	return nil
}

func (w *pfPaper) teardown()              {}
func (w *pfPaper) prepare(t *tally) error { return nil }
func (w *pfPaper) lanes() int             { return 1 }
func (w *pfPaper) maxM() word.Size        { return w.cfg.M }

func (w *pfPaper) job(tr *tracer, _ int, t *tally) (job, bool) {
	var j job
	for _, name := range pfManagers {
		// Each cell starts from a returned heap and a fresh peak
		// counter, so its peak RSS is its own.
		freshPeak()
		t0 := time.Now()
		var rep check.Report
		var err error
		if tr == nil {
			rep, err = check.RunSampled(w.cfg, core.NewPF(core.Options{}), name, pfStride)
		} else {
			rep, err = w.traced(tr, name)
		}
		d := time.Since(t0)
		w.hwm[name] = append(w.hwm[name], float64(vmHWM()))
		if j.cells == 0 {
			j.first = d
		}
		j.wall += d
		j.cells++
		if !t.check(err == nil, "pf-paper %s: %v", name, err) {
			continue
		}
		r := rep.Result
		j.ops += r.Allocs + r.Frees + r.Moves
		j.moves += r.Moves
		j.moved += int64(r.Moved)
		t.check(rep.Err == nil, "pf-paper %s: run failed: %v", name, rep.Err)
		if tr != nil {
			w.violations += len(rep.Violations)
		}
		t.check(len(rep.Violations) == 0, "pf-paper %s: %d referee violations", name, len(rep.Violations))
		t.check(float64(r.HighWater) >= w.floor, "pf-paper %s: HS=%d below the Theorem 1 floor %.0f", name, r.HighWater, w.floor)
		got := digest([]sim.Result{r})
		t.check(got == w.want[name], "pf-paper %s: result digest %s, recorded %s", name, got, w.want[name])
	}
	return j, true
}

// traced is check.RunSampled built by hand, with wrappers outside and
// inside the referee, around the mover and the program, and on the
// round hook.
func (w *pfPaper) traced(tr *tracer, name string) (check.Report, error) {
	ln := tr.here()
	inner, err := mm.New(name)
	if err != nil {
		return check.Report{}, err
	}
	iw := newMgrWrap(inner, ln, lMM, lCheck)
	if name == "first-fit" && w.rec == nil {
		w.rec = &placementLog{}
		iw.rec = w.rec
	}
	ref := check.NewReferee(iw)
	ref.SetSampleEvery(pfStride)
	ow := newMgrWrap(ref, ln, lCheck, lSim)
	prog := &progWrap{inner: core.NewPF(core.Options{}), ln: ln}
	e, err := sim.NewEngine(w.cfg, prog, ow)
	if err != nil {
		return check.Report{}, err
	}
	e.RoundHook = func(r sim.Result) {
		ln.enter(lCheck)
		ref.CheckRound(r)
		d, _ := ln.exit()
		ln.checkN++
		ln.checkDur += d
	}
	e.RoundHookEvery = pfStride
	ln.enter(lSim)
	res, rerr := e.Run()
	ln.exit()
	return check.Report{Result: res, Err: rerr, Violations: ref.Violations()}, nil
}

// peak is the larger of the two managers' median per-cell peaks.
func (w *pfPaper) peak(*phase) float64 {
	var p float64
	for _, xs := range w.hwm {
		p = max(p, median(xs))
	}
	return p
}

func (w *pfPaper) layers(tr *tracer, ph *phase, m metricSet, t *tally) float64 {
	if w.rec != nil {
		capacity := w.cfg.M * sim.DefaultCapacityFactor
		fsNs, occNs, allocB, bad := replay(w.rec, capacity)
		t.check(bad == 0, "pf-paper replay: %d first-fit placements differ from heap.FreeSpace.AllocFirstFit", bad)
		m.set("heap.freespace_ns_per_op", fsNs, "ns")
		m.set("heap.occupancy_ns_per_op", occNs, "ns")
		m.set("heap.replay_alloc_b_per_op", allocB, "B")
		w.rec = nil
	}
	m.set("check.violations", float64(w.violations), "count")
	return float64(ph.wall)
}

// replay drives a recorded first-fit placement stream through the heap
// layer alone: heap.FreeSpace (the manager's free-space index) and
// heap.Occupancy (the engine's ground truth). It returns the time per
// operation of each, the bytes allocated per operation, and how many
// AllocFirstFit addresses differ from the recorded placement.
func replay(rec *placementLog, capacity word.Size) (fsNs, occNs, allocB float64, bad int) {
	ops := float64(len(rec.ids))
	if ops == 0 {
		return 0, 0, 0, 0
	}
	rt0 := readRuntime()
	fs := heap.NewFreeSpace(capacity)
	t0 := time.Now()
	for i, size := range rec.sizes {
		if size > 0 {
			addr, err := fs.AllocFirstFit(size)
			if err != nil || addr != rec.addrs[i] {
				bad++
			}
		} else if err := fs.Release(heap.Span{Addr: rec.addrs[i], Size: -size}); err != nil {
			bad++
		}
	}
	fsNs = float64(time.Since(t0)) / ops
	occ := heap.NewOccupancy()
	t1 := time.Now()
	for i, size := range rec.sizes {
		if size > 0 {
			if err := occ.Place(rec.ids[i], heap.Span{Addr: rec.addrs[i], Size: size}); err != nil {
				bad++
			}
		} else if _, err := occ.Remove(rec.ids[i]); err != nil {
			bad++
		}
	}
	occNs = float64(time.Since(t1)) / ops
	rt1 := readRuntime()
	allocB = (rt1.allocBytes - rt0.allocBytes) / ops
	return fsNs, occNs, allocB, bad
}

// digest fingerprints simulated results: a speed-only change leaves
// every field identical.
func digest(rs []sim.Result) string {
	h := newHasher()
	for _, r := range rs {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return h.sum()
}
