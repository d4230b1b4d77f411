package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"compaction/internal/obs"
	"compaction/internal/resume"
	"compaction/internal/sim"
)

// Worker is the one worker loop: it claims leases, runs each granted
// cell, heartbeats the lease while the cell runs, and commits or fails
// it. In-process workers drive a *Coordinator directly; remote workers
// drive one over a wire (internal/dist). Either way a worker reuses
// one engine across its cells.
type Worker struct {
	// ID names the worker in leases and the log.
	ID string
	// Leases is the coordinator the worker drives.
	Leases Leases
	// Cell turns a grant into the cell to run.
	Cell func(Grant) (Cell, error)
	// Options supplies the per-attempt settings: CellTimeout,
	// EngineTracer, HeapProbe, HeapEvery and ProfileLabels. OnCell, if
	// set, sees each successful outcome before its commit.
	Options Options
	// BackoffBase and BackoffMax shape the poll backoff after an empty
	// claim that carries no Wake channel, and the retry backoff after a
	// claim or commit error. Defaults: 50ms, 2s.
	BackoffBase, BackoffMax time.Duration
	// MaxErrors is how many consecutive claim errors, or errors
	// delivering one commit, the worker tolerates before concluding
	// the coordinator is gone. Default 10.
	MaxErrors int
	// Logf, if non-nil, receives progress lines.
	Logf func(format string, args ...any)

	engine *sim.Engine
}

// Run claims and runs leases until the grid settles, claimCtx is
// canceled (graceful drain: the in-flight cell finishes and commits,
// then the worker says goodbye), or runCtx is canceled (hard stop: the
// in-flight attempt is cut off and handed back). It returns nil on
// done/drain, runCtx's cause on a hard stop, and an error when the
// coordinator stays unreachable past the retry budget.
func (w *Worker) Run(runCtx, claimCtx context.Context) error {
	if w.BackoffBase <= 0 {
		w.BackoffBase = 50 * time.Millisecond
	}
	if w.BackoffMax <= 0 {
		w.BackoffMax = 2 * time.Second
	}
	if w.MaxErrors <= 0 {
		w.MaxErrors = 10
	}
	if w.Logf == nil {
		w.Logf = func(string, ...any) {}
	}
	errs := 0
	delay := w.BackoffBase
	for {
		if runCtx.Err() != nil {
			w.farewell(runCtx)
			return fmt.Errorf("sweep: %w", context.Cause(runCtx))
		}
		if claimCtx.Err() != nil {
			w.Logf("worker %s: drained", w.ID)
			w.farewell(runCtx)
			return nil
		}
		g, err := w.Leases.Claim(claimCtx, w.ID)
		if err != nil {
			if claimCtx.Err() != nil {
				continue // drain or stop raced the call; resolve at the top
			}
			errs++
			if errs >= w.MaxErrors {
				return fmt.Errorf("sweep: giving up after %d consecutive claim failures: %w", errs, err)
			}
			delay = w.wait(runCtx, claimCtx, nil, delay)
			continue
		}
		errs = 0
		switch g.State {
		case ClaimDone:
			w.Logf("worker %s: grid settled", w.ID)
			w.farewell(runCtx)
			return nil
		case ClaimEmpty:
			// Every unsettled cell is leased elsewhere. A remote worker
			// polls, which also drives coordinator-side lease expiry, so
			// an idle worker is what rescues a hung one.
			delay = w.wait(runCtx, claimCtx, g.Wake, delay)
			continue
		}
		delay = w.BackoffBase
		if err := w.run(runCtx, g); err != nil {
			return err
		}
	}
}

// wait sleeps until wake is closed, either context is done, or — when
// nobody will signal (wake is nil) — the delay passes. It returns the
// next, doubled and capped, delay.
func (w *Worker) wait(runCtx, claimCtx context.Context, wake <-chan struct{}, delay time.Duration) time.Duration {
	var timeout <-chan time.Time
	if wake == nil {
		t := time.NewTimer(delay)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-runCtx.Done():
	case <-claimCtx.Done():
	case <-wake:
	case <-timeout:
	}
	return min(2*delay, w.BackoffMax)
}

// run takes one granted lease to its protocol conclusion: commit,
// fail, or silent abandonment (lease fenced away mid-run). Only a hard
// stop or an unreachable coordinator returns an error.
func (w *Worker) run(runCtx context.Context, g Grant) error {
	// Heartbeat the lease while the cell runs. A fenced renewal means
	// the lease expired and was reassigned: cancel the attempt and
	// abandon the work (the new holder owns the cell now).
	cellCtx, cancelCell := context.WithCancel(runCtx)
	defer cancelCell()
	var fenced atomic.Bool
	stop := w.heartbeat(cellCtx, cancelCell, g, &fenced)
	cell, err := w.Cell(g)
	out := Outcome{Cell: cell, Err: err}
	if err == nil {
		w.Logf("worker %s: claimed cell %d (%s vs %s, token %d)", w.ID, g.Cell, cell.Label, cell.Manager, g.Token)
		out = w.attempt(cellCtx, g.Cell, cell)
	}
	stop()

	if fenced.Load() {
		return nil
	}
	if out.Err == nil {
		if w.Options.OnCell != nil {
			w.Options.OnCell(g.Cell, out)
		}
		return w.commit(runCtx, g, out.Result)
	}
	w.Logf("worker %s: cell %d failed: %v", w.ID, g.Cell, out.Err)
	kind := classify(runCtx, out.Err)
	if kind == FailCanceled {
		// Hard stop mid-cell: hand the attempt back on a short detached
		// deadline, then report the interruption.
		ctx, cancel := context.WithTimeout(context.WithoutCancel(runCtx), 2*time.Second)
		defer cancel()
		_ = w.Leases.Fail(ctx, w.ID, g.Cell, g.Token, kind, out)
		return fmt.Errorf("sweep: %w", context.Cause(runCtx))
	}
	if err := w.Leases.Fail(runCtx, w.ID, g.Cell, g.Token, kind, out); errors.Is(err, resume.ErrFenced) {
		w.Logf("worker %s: failure report for cell %d fenced (lease reassigned)", w.ID, g.Cell)
	}
	return nil
}

// heartbeat renews an expiring lease every third of its TTL until the
// returned stop is called. A fenced renewal sets fenced and cancels
// the cell. Transport errors are not fatal: the run continues and the
// commit decides.
func (w *Worker) heartbeat(cellCtx context.Context, cancelCell context.CancelFunc, g Grant, fenced *atomic.Bool) (stop func()) {
	if g.TTL <= 0 {
		return func() {}
	}
	hbCtx, stopHB := context.WithCancel(cellCtx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(max(g.TTL/3, 10*time.Millisecond))
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if err := w.Leases.Renew(hbCtx, w.ID, g.Cell, g.Token); errors.Is(err, resume.ErrFenced) {
					w.Logf("worker %s: lease on cell %d fenced away; abandoning", w.ID, g.Cell)
					fenced.Store(true)
					cancelCell()
					return
				}
			}
		}
	}()
	return func() {
		stopHB()
		<-done
	}
}

// attempt runs one attempt of the cell on the worker's engine, under
// the cell deadline, engine tracer, heap probe and pprof labels the
// options ask for.
func (w *Worker) attempt(ctx context.Context, i int, c Cell) Outcome {
	o := w.Options
	if o.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.CellTimeout)
		defer cancel()
	}
	var tracer obs.Tracer
	if o.EngineTracer != nil {
		tracer = o.EngineTracer(i)
	}
	var hook sim.HeapHook
	if o.HeapProbe != nil {
		hook = o.HeapProbe(i)
	}
	var out Outcome
	run := func(ctx context.Context) {
		out, w.engine = runCellAttempt(ctx, c, w.engine, tracer, hook, o.HeapEvery)
	}
	if o.ProfileLabels != nil {
		pprof.Do(ctx, cellLabels(o.ProfileLabels, i), run)
	} else {
		run(ctx)
	}
	return out
}

// commit delivers the commit, retrying errors with backoff: commits
// are fenced, so re-delivery is always safe.
func (w *Worker) commit(runCtx context.Context, g Grant, res sim.Result) error {
	delay := w.BackoffBase
	for attempt := 1; ; attempt++ {
		err := w.Leases.Commit(runCtx, w.ID, g.Cell, g.Token, res)
		switch {
		case err == nil:
			w.Logf("worker %s: committed cell %d", w.ID, g.Cell)
			return nil
		case errors.Is(err, resume.ErrFenced):
			w.Logf("worker %s: commit for cell %d fenced (stale or duplicate)", w.ID, g.Cell)
			return nil
		case runCtx.Err() != nil:
			return fmt.Errorf("sweep: %w", context.Cause(runCtx))
		case attempt >= w.MaxErrors:
			return fmt.Errorf("sweep: commit for cell %d undeliverable after %d attempts: %w", g.Cell, attempt, err)
		}
		delay = w.wait(runCtx, runCtx, nil, delay)
	}
}

// farewell tells the coordinator this worker is leaving, on a short
// detached deadline (runCtx may already be canceled).
func (w *Worker) farewell(runCtx context.Context) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(runCtx), 2*time.Second)
	defer cancel()
	w.Leases.Goodbye(ctx, w.ID)
}
