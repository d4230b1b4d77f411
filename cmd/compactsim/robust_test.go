package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"compaction/internal/faultinject"
	"compaction/internal/mm"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/sweep"
)

var flakyRegistered atomic.Bool

// registerFlakyOnce registers a manager whose 2000th allocation of
// every run fails with an injected fault — a few rounds in (the
// workload allocates ~1000 objects in round 0 alone), so the sinks
// have content to lose, while the run still reliably dies.
func registerFlakyOnce(t *testing.T) {
	t.Helper()
	if !flakyRegistered.CompareAndSwap(false, true) {
		return
	}
	mm.Register("flaky-first-fit", func() sim.Manager {
		inner, err := mm.New("first-fit")
		if err != nil {
			panic(err)
		}
		return faultinject.FailAllocAt(inner, 2000)
	})
}

// TestSinksFlushedOnFailure covers the satellite requirement: when a
// run dies mid-flight, -trace-out and -series-out must still be
// finalized — the NDJSON on disk parses line by line and the series
// CSV is complete — before the command exits non-zero.
func TestSinksFlushedOnFailure(t *testing.T) {
	registerFlakyOnce(t)
	dir := t.TempDir()
	ndjson := filepath.Join(dir, "run.ndjson")
	series := filepath.Join(dir, "run.csv")
	err := run(context.Background(), runOpts{
		adv: "random", manager: "flaky-first-fit",
		m: 1 << 12, n: 1 << 5, c: 16, seed: 1, rounds: 50,
		obs: obsOpts{traceOut: ndjson, traceFormat: "auto", seriesOut: series},
	})
	if err == nil {
		t.Fatal("injected manager fault did not fail the run")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("failure is not the injected one: %v", err)
	}

	raw, rerr := os.ReadFile(ndjson)
	if rerr != nil {
		t.Fatalf("trace not written despite failure: %v", rerr)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("trace is empty; events before the fault were lost")
	}
	for i, line := range lines {
		var ev map[string]any
		if jerr := json.Unmarshal([]byte(line), &ev); jerr != nil {
			t.Fatalf("ndjson line %d invalid after forced failure: %v", i+1, jerr)
		}
	}

	csv, rerr := os.ReadFile(series)
	if rerr != nil {
		t.Fatalf("series not written despite failure: %v", rerr)
	}
	rows := strings.Split(strings.TrimRight(string(csv), "\n"), "\n")
	if len(rows) < 2 {
		t.Fatalf("series CSV lacks data rows after forced failure:\n%s", csv)
	}
}

// TestExitCodeMapping pins the process status contract: 0 success,
// 1 error, 3 interrupted (2 usage is decided before any run).
func TestExitCodeMapping(t *testing.T) {
	bg := context.Background()
	canceled, cancel := context.WithCancel(bg)
	cancel()
	cases := []struct {
		ctx  context.Context
		err  error
		want int
	}{
		{bg, nil, 0},
		{bg, errors.New("boom"), 1},
		{canceled, errors.New("interrupted"), 3},
		{canceled, nil, 0},
	}
	for i, c := range cases {
		if got := exitCode(c.ctx, c.err); got != c.want {
			t.Errorf("case %d: exitCode = %d, want %d", i, got, c.want)
		}
	}
}

// TestFtFlagValidation: fault-tolerance flags are sweep-only.
func TestFtFlagValidation(t *testing.T) {
	cases := []struct {
		ft       ftOpts
		sweeping bool
		wantErr  bool
	}{
		{ftOpts{}, false, false},
		{ftOpts{checkpoint: "x"}, false, true},
		{ftOpts{cellTimeout: time.Second}, false, true},
		{ftOpts{retries: 1}, false, true},
		{ftOpts{checkpoint: "x", cellTimeout: time.Second, retries: 2}, true, false},
	}
	for i, c := range cases {
		if msg := c.ft.validate(c.sweeping); (msg != "") != c.wantErr {
			t.Errorf("case %d: validate = %q, wantErr=%v", i, msg, c.wantErr)
		}
	}
}

// TestDistFlagValidation: the coordinator needs a -sweep grid and must
// not be silently ignored by the -seeds or -checkpoint modes.
func TestDistFlagValidation(t *testing.T) {
	cases := []struct {
		dist       distOpts
		sweeping   bool
		seeds      int
		checkpoint string
		wantErr    bool
	}{
		{distOpts{}, false, 1, "", false},
		{distOpts{coordinate: "127.0.0.1:0"}, true, 1, "", false},
		{distOpts{coordinate: "127.0.0.1:0", ledger: "d"}, true, 1, "", false},
		{distOpts{coordinate: "127.0.0.1:0"}, false, 1, "", true}, // needs -sweep
		{distOpts{coordinate: "127.0.0.1:0"}, true, 2, "", true},  // -seeds would bypass it
		{distOpts{coordinate: "127.0.0.1:0"}, true, 1, "j", true}, // -checkpoint conflicts
		{distOpts{ledger: "d"}, true, 1, "", true},                // -ledger without -coordinate
	}
	for i, c := range cases {
		msg := c.dist.validate(c.sweeping, c.seeds, c.checkpoint)
		if (msg != "") != c.wantErr {
			t.Errorf("case %d: validate = %q, wantErr=%v", i, msg, c.wantErr)
		}
	}
}

// TestSweepCheckpointResumeCLI is the tentpole acceptance drill at the
// command level: a sweep interrupted mid-grid, resumed via
// -checkpoint with identical flags, produces a CSV byte-identical to
// an uninterrupted run — and the journal is cleaned up on completion.
func TestSweepCheckpointResumeCLI(t *testing.T) {
	dir := t.TempDir()
	base := sweepOpts{
		adv: "random", manager: "first-fit",
		m: 1 << 12, n: 1 << 5,
		sweepCs: "8,16,32,64", seed: 3, rounds: 20,
	}

	// Ground truth: one uninterrupted run.
	clean := base
	clean.csvOut = filepath.Join(dir, "clean.csv")
	if err := runSweep(context.Background(), clean); err != nil {
		t.Fatal(err)
	}
	cleanCSV, err := os.ReadFile(clean.csvOut)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the interrupted first invocation: the same grid
	// runSweep would build, canceled after two cells, journaling into
	// the checkpoint file under the same params string.
	ckpt := filepath.Join(dir, "sweep.ckpt")
	mk, pow2, err := newProgram(base.adv, base.seed, base.rounds, base.ell)
	if err != nil {
		t.Fatal(err)
	}
	cells := sweep.Grid(sim.Config{M: base.m, N: base.n, Pow2Only: pow2},
		[]int64{8, 16, 32, 64}, []string{"first-fit"}, base.adv, mk)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var built atomic.Int32
	for i := range cells {
		inner := cells[i].Program
		cells[i].Program = func() sim.Program {
			if built.Add(1) == 3 {
				cancel()
			}
			return inner()
		}
	}
	j, err := resume.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := sweep.RunOpts(ctx, cells, sweep.Options{
		Parallelism: 1, Journal: j, Params: journalParams(base),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Holes(outs)) == 0 || j.Len() == 0 {
		t.Fatalf("interruption not representative: %d holes, %d journaled",
			len(sweep.Holes(outs)), j.Len())
	}

	// The resumed invocation: same flags plus -checkpoint.
	resumed := base
	resumed.csvOut = filepath.Join(dir, "resumed.csv")
	resumed.ft = ftOpts{checkpoint: ckpt}
	if err := runSweep(context.Background(), resumed); err != nil {
		t.Fatal(err)
	}
	resumedCSV, err := os.ReadFile(resumed.csvOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cleanCSV, resumedCSV) {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n--- clean\n%s--- resumed\n%s",
			cleanCSV, resumedCSV)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("completed journal not removed: %v", err)
	}
}

// TestSweepRefusesForeignCheckpoint: resuming under different flags
// must be refused, not silently blended.
func TestSweepRefusesForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	a := sweepOpts{
		adv: "random", manager: "first-fit", m: 1 << 12, n: 1 << 5,
		sweepCs: "8,16", seed: 3, rounds: 10, ft: ftOpts{checkpoint: ckpt},
	}
	// Populate the journal the way an interrupted run under a's flags
	// would have (RunOpts never removes a journal; only a completed
	// runSweep does).
	mk, pow2, err := newProgram(a.adv, a.seed, a.rounds, a.ell)
	if err != nil {
		t.Fatal(err)
	}
	cells := sweep.Grid(sim.Config{M: a.m, N: a.n, Pow2Only: pow2},
		[]int64{8, 16}, []string{a.manager}, a.adv, mk)
	j, err := resume.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.RunOpts(context.Background(), cells, sweep.Options{
		Parallelism: 1, Journal: j, Params: journalParams(a),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("journal not on disk: %v", err)
	}
	// Different seed → different params → refusal.
	b := a
	b.seed = 99
	if err := runSweep(context.Background(), b); !errors.Is(err, resume.ErrMismatch) {
		t.Fatalf("foreign checkpoint accepted: %v", err)
	}
}

// TestSweepInterruptedPropagates: a canceled sweep returns an error
// that main maps to exit status 3.
func TestSweepInterruptedPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := sweepOpts{
		adv: "random", manager: "first-fit", m: 1 << 12, n: 1 << 5,
		sweepCs: "8,16", seed: 1, rounds: 10,
	}
	err := runSweep(ctx, o)
	if err == nil {
		t.Fatal("canceled sweep reported success")
	}
	if got := exitCode(ctx, err); got != 3 {
		t.Fatalf("exit code = %d, want 3", got)
	}
}
