package sweep

import (
	"context"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"testing"

	"compaction/internal/heap"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/workload"
)

func probeCells(n, rounds int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		seed := int64(i + 1)
		cells[i] = Cell{
			Label:   "probe",
			Config:  sim.Config{M: 1 << 12, N: 1 << 5, C: -1, Pow2Only: true},
			Manager: "first-fit",
			Program: func() sim.Program {
				return workload.NewRandom(workload.Config{Seed: seed, Rounds: rounds})
			},
		}
	}
	return cells
}

// TestHeapProbeSamplesCells: every probed cell's hook sees the
// engine's occupancy at the configured stride, unprobed cells see
// nothing, and — because engines are reused across a worker's cells —
// no cell's hook leaks into its successor.
func TestHeapProbeSamplesCells(t *testing.T) {
	const rounds, every = 40, 4
	cells := probeCells(4, rounds)
	sampled := make([][]int, len(cells))
	var mu sync.Mutex
	outs, err := RunOpts(context.Background(), cells, Options{
		Parallelism: 1, // one engine serves all cells: leaks would show
		HeapEvery:   every,
		HeapProbe: func(cell int) sim.HeapHook {
			if cell%2 == 1 {
				return nil // odd cells opt out
			}
			return func(round int, occ *heap.Occupancy) {
				if occ == nil {
					t.Error("hook called with nil occupancy")
				}
				mu.Lock()
				sampled[cell] = append(sampled[cell], round)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("cell %d: %v", i, o.Err)
		}
		if i%2 == 1 {
			if len(sampled[i]) != 0 {
				t.Fatalf("unprobed cell %d was sampled %d times (hook leak)", i, len(sampled[i]))
			}
			continue
		}
		if len(sampled[i]) == 0 {
			t.Fatalf("probed cell %d never sampled", i)
		}
		last := int(o.Result.Rounds) - 1
		for k, r := range sampled[i] {
			if (r+1)%every != 0 && r != last {
				t.Fatalf("cell %d sample %d at round %d violates stride %d (last=%d)", i, k, r, every, last)
			}
		}
	}
}

// TestOnCellObservesEveryFate: OnCell fires for successes (before the
// journal checkpoint), failures, restores, and skips — once per cell.
func TestOnCellObservesEveryFate(t *testing.T) {
	cells := probeCells(3, 10)
	cells = append(cells, Cell{
		Label: "bad", Config: cells[0].Config, Manager: "no-such-manager",
		Program: cells[0].Program,
	})
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, err := resume.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]resume.CellKey, len(cells))
	for i, c := range cells {
		keys[i] = c.key(i)
	}
	// journaled reads the journal file back, as a resuming process would.
	journaled := func(cell int) (bool, error) {
		onDisk, err := resume.Open(path)
		if err != nil {
			return false, err
		}
		r, err := resume.Restore(onDisk, keys, "probe")
		if err != nil {
			return false, err
		}
		_, ok := r.Results[cell]
		return ok, nil
	}
	type seen struct {
		restored bool
		failed   bool
	}
	got := map[int][]seen{}
	outs, err := RunOpts(context.Background(), cells, Options{
		Parallelism: 2, Journal: j, Params: "probe",
		OnCell: func(cell int, o Outcome) {
			// Success must be observed BEFORE its checkpoint lands, so
			// durable artifacts written here exist when the journal says
			// the cell is done.
			if o.Err == nil && !o.Restored {
				if done, err := journaled(cell); done || err != nil {
					t.Errorf("cell %d already journaled when OnCell ran (err %v)", cell, err)
				}
			}
			got[cell] = append(got[cell], seen{o.Restored, o.Err != nil})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if len(got[i]) != 1 {
			t.Fatalf("cell %d observed %d times, want 1", i, len(got[i]))
		}
	}
	if !got[3][0].failed || outs[3].Err == nil {
		t.Fatalf("bad-manager cell not observed as failed: %+v", got[3])
	}

	// Resume: the three journaled cells come back restored.
	j2, err := resume.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got = map[int][]seen{}
	if _, err := RunOpts(context.Background(), cells, Options{
		Parallelism: 2, Journal: j2, Params: "probe",
		OnCell: func(cell int, o Outcome) {
			got[cell] = append(got[cell], seen{o.Restored, o.Err != nil})
		},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if len(got[i]) != 1 || !got[i][0].restored {
			t.Fatalf("cell %d not observed as restored: %+v", i, got[i])
		}
	}
}

// TestOnCellObservesSkips: a sweep canceled before it starts still
// reports every cell, as skipped.
func TestOnCellObservesSkips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var mu sync.Mutex
	kinds := map[int]FailKind{}
	outs, err := RunOpts(ctx, probeCells(4, 10), Options{
		Parallelism: 2,
		OnCell: func(cell int, o Outcome) {
			ce, ok := o.Err.(*CellError)
			if !ok {
				t.Errorf("cell %d: err %v is not a CellError", cell, o.Err)
				return
			}
			mu.Lock()
			kinds[cell] = ce.Kind
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != len(outs) {
		t.Fatalf("observed %d cells, want %d", len(kinds), len(outs))
	}
	for i, k := range kinds {
		if k != FailSkipped {
			t.Fatalf("cell %d kind = %v, want skipped", i, k)
		}
	}
}

// TestCellLabels: the pprof label set carries the base pairs plus the
// grid position, and a labeled sweep runs clean end to end.
func TestCellLabels(t *testing.T) {
	pprof.Do(context.Background(), cellLabels(map[string]string{"job": "j1", "tenant": "acme"}, 7),
		func(ctx context.Context) {
			for k, want := range map[string]string{"job": "j1", "tenant": "acme", "cell": "7"} {
				if v, ok := pprof.Label(ctx, k); !ok || v != want {
					t.Errorf("label %s = %q (ok=%v), want %q", k, v, ok, want)
				}
			}
		})

	outs, err := RunOpts(context.Background(), probeCells(2, 10), Options{
		Parallelism: 2,
		ProfileLabels: map[string]string{
			"job": "test-job", "tenant": "t0",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("labeled cell %d failed: %v", i, o.Err)
		}
	}
}
