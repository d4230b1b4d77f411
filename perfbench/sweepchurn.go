package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"compaction/internal/catalog"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/sweep"
	"compaction/internal/word"
)

// sweepChurn runs the seeded random program against every manager at
// two compaction bounds, as a journaled sweep on two workers: one job
// is one sweep.
type sweepChurn struct {
	seed   int64
	tmp    string
	base   sim.Config
	rounds int
	cs     []int64
	want   string // recorded digest for this seed, or the run's first

	dir    string
	mk     func() sim.Program
	cells  []sweep.Cell
	params string

	// Traced accounting.
	laneNs  int64     // two lanes times each traced sweep's wall
	tails   []float64 // per traced sweep: end minus the first lane's last cell end
	outs    []sweep.Outcome
	replays []*placementLog
}

func newSweepChurn(seed int64, tmp string, tiny bool) *sweepChurn {
	w := &sweepChurn{
		seed: seed, tmp: tmp,
		base:   sim.Config{M: 1 << 16, N: 256},
		rounds: 20,
		cs:     []int64{4, 64},
		want:   sweepDigests[seed],
	}
	if tiny {
		w.base = sim.Config{M: 1 << 10, N: 32}
		w.rounds = 10
		w.want = sweepTinyDigests[seed]
	}
	return w
}

func (w *sweepChurn) setup() error {
	dir, err := os.MkdirTemp(w.tmp, "sweep-churn-")
	if err != nil {
		return err
	}
	w.dir = dir
	mk, pow2, err := catalog.New("random", catalog.Params{Seed: w.seed, Rounds: w.rounds})
	if err != nil {
		return err
	}
	w.mk = mk
	base := w.base
	base.Pow2Only = pow2
	w.base = base
	w.cells = sweep.Grid(base, w.cs, managerNames, "random", mk)
	w.params = fmt.Sprintf("adv=random seed=%d rounds=%d", w.seed, w.rounds)
	// Warm up: one tiny journaled sweep through the same path.
	wmk, _, err := catalog.New("random", catalog.Params{Seed: w.seed, Rounds: 10})
	if err != nil {
		return err
	}
	small := base
	small.M, small.N = 1<<10, 32
	jr, err := resume.Open(filepath.Join(dir, "warm.ndjson"))
	if err != nil {
		return err
	}
	outs, err := sweep.RunOpts(context.Background(), sweep.Grid(small, w.cs, managerNames, "random", wmk),
		sweep.Options{Parallelism: 2, Journal: jr, Params: "warm-up"})
	if err != nil {
		return err
	}
	if holes := sweep.Holes(outs); len(holes) > 0 {
		return fmt.Errorf("warm-up sweep: %v", outs[holes[0]].Err)
	}
	return nil
}

func (w *sweepChurn) teardown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *sweepChurn) prepare(*tally) error { return nil }
func (w *sweepChurn) lanes() int           { return 1 }
func (w *sweepChurn) maxM() word.Size      { return w.base.M }
func (w *sweepChurn) peak(ph *phase) float64 {
	return float64(ph.hwm)
}

func (w *sweepChurn) job(tr *tracer, _ int, t *tally) (job, bool) {
	dir, err := os.MkdirTemp(w.dir, "job-")
	if !t.check(err == nil, "sweep-churn: %v", err) {
		return job{}, false
	}
	defer os.RemoveAll(dir)
	jr, err := resume.Open(filepath.Join(dir, "journal.ndjson"))
	if !t.check(err == nil, "sweep-churn: %v", err) {
		return job{}, false
	}
	cells := w.cells
	var rec *placementLog
	if tr != nil {
		mk := w.mk
		prog := func() sim.Program { return &progWrap{inner: mk(), ln: tr.here()} }
		cells = sweep.Grid(w.base, w.cs, benchNames(managerNames), "random", prog)
		if len(w.replays) == 0 {
			rec = recordNextFirstFit()
		}
	}
	var first time.Duration
	t0 := time.Now()
	outs, err := sweep.RunOpts(context.Background(), cells, sweep.Options{
		Parallelism: 2,
		Journal:     jr,
		Params:      w.params,
		// OnCell calls are serialized by the sweep.
		OnCell: func(int, sweep.Outcome) {
			if first == 0 {
				first = time.Since(t0)
			}
		},
	})
	wall := time.Since(t0)
	if tr != nil {
		end := monoNow()
		w.laneNs += 2 * int64(wall)
		if _, ends := tr.flush(); len(ends) > 0 {
			earliest := ends[0]
			for _, e := range ends[1:] {
				earliest = min(earliest, e)
			}
			w.tails = append(w.tails, float64(end-earliest)/1e6)
		}
		if rec != nil {
			w.replays = append(w.replays, rec)
		}
		w.outs = outs
	}
	j := job{wall: wall, first: first, cells: len(cells)}
	t.check(err == nil, "sweep-churn: sweep infrastructure: %v", err)
	results := make([]sim.Result, len(outs))
	for i, o := range outs {
		t.check(o.Err == nil, "sweep-churn: cell %d: %v", i, o.Err)
		r := o.Result
		results[i] = r
		j.ops += r.Allocs + r.Frees + r.Moves
		j.moves += r.Moves
		j.moved += int64(r.Moved)
	}
	t.check(jr.Len() == len(cells), "sweep-churn: journal holds %d of %d cells", jr.Len(), len(cells))
	got := digest(results)
	if w.want == "" {
		w.want = got
	}
	t.check(got == w.want, "sweep-churn seed %d: result digest %s, want %s", w.seed, got, w.want)
	return j, true
}

func (w *sweepChurn) layers(tr *tracer, ph *phase, m metricSet, t *tally) float64 {
	agg, _ := tr.flush()
	agg.self[lSweep] += w.laneNs - agg.windowSum
	m.set("sweep.busy_share", ratio(float64(agg.windowSum), float64(w.laneNs)), "ratio")
	m.setN("sweep.tail_ms", median(w.tails), "ms", len(w.tails))
	if us, ok := journalAppends(w.dir, w.cells, w.params, w.outs, t); ok {
		m.setN("resume.journal_append_us_p50", median(us), "us", len(us))
	}
	if len(w.replays) > 0 {
		capacity := w.base.M * sim.DefaultCapacityFactor
		fsNs, occNs, allocB, bad := replay(w.replays[0], capacity)
		t.check(bad == 0, "sweep-churn replay: %d first-fit placements differ from heap.FreeSpace.AllocFirstFit", bad)
		m.set("heap.freespace_ns_per_op", fsNs, "ns")
		m.set("heap.occupancy_ns_per_op", occNs, "ns")
		m.set("heap.replay_alloc_b_per_op", allocB, "B")
	}
	return 2 * float64(ph.wall)
}

// journalAppends records outs, one durable resume.Journal append each,
// into a fresh journal bound to cells, and returns each append's time
// in microseconds.
func journalAppends(dir string, cells []sweep.Cell, params string, outs []sweep.Outcome, t *tally) ([]float64, bool) {
	if len(outs) != len(cells) {
		return nil, false
	}
	jdir, err := os.MkdirTemp(dir, "journal-")
	if !t.check(err == nil, "journal timing: %v", err) {
		return nil, false
	}
	defer os.RemoveAll(jdir)
	jr, err := resume.Open(filepath.Join(jdir, "journal.ndjson"))
	if !t.check(err == nil, "journal timing: %v", err) {
		return nil, false
	}
	fps := make([]string, len(cells))
	for i, c := range cells {
		fps[i] = resume.Fingerprint(resume.CellKey{Index: i, Label: c.Label, Manager: c.Manager, Config: c.Config})
	}
	if err := jr.Bind(resume.GridFingerprint(fps), len(cells), params); !t.check(err == nil, "journal timing: %v", err) {
		return nil, false
	}
	us := make([]float64, 0, len(outs))
	for i, o := range outs {
		t0 := time.Now()
		_, err := jr.Record(resume.Entry{Fingerprint: fps[i], Index: i, Label: cells[i].Label, Manager: cells[i].Manager, Result: o.Result})
		us = append(us, float64(time.Since(t0))/1e3)
		if !t.check(err == nil, "journal timing: %v", err) {
			return nil, false
		}
	}
	return us, true
}
