package dist

import (
	"context"
	"fmt"
	"time"

	"compaction/internal/faultinject"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/sweep"
)

// WorkerOptions configures a remote worker.
type WorkerOptions struct {
	// ID names the worker in leases and the ledger. Required.
	ID string
	// CellTimeout bounds each cell attempt's wall clock (sweep
	// Options.CellTimeout). 0 disables; pair a nonzero value with the
	// coordinator's lease TTL so a wedged cell is abandoned before its
	// lease has long expired.
	CellTimeout time.Duration
	// BackoffBase and BackoffMax shape the claim-poll backoff when the
	// grid has nothing claimable, and the transport-error retry
	// backoff. Defaults: 50ms, 2s.
	BackoffBase, BackoffMax time.Duration
	// MaxErrors is how many consecutive transport or protocol errors
	// the worker tolerates (with backoff) before concluding the
	// coordinator is gone. Default 10.
	MaxErrors int
	// Hooks inject process-level faults for drills and tests.
	Hooks faultinject.WorkerHooks
	// Logf, if non-nil, receives progress lines (claimed, committed,
	// fenced, draining).
	Logf func(format string, args ...any)
}

// NewWorker binds the one worker loop to a coordinator over the
// transport: each grant's task is rebuilt into a cell with
// Task.MakeCell. Run's first context is the hard stop, its second the
// graceful drain (sweep.Worker.Run).
func NewWorker(conn Conn, o WorkerOptions) *sweep.Worker {
	l := &connLeases{conn: conn, hooks: o.Hooks}
	return &sweep.Worker{
		ID:     o.ID,
		Leases: l,
		// A worker runs one cell at a time, so the last granted task
		// is the one being run.
		Cell:        func(sweep.Grant) (sweep.Cell, error) { return l.task.MakeCell() },
		Options:     sweep.Options{CellTimeout: o.CellTimeout},
		BackoffBase: o.BackoffBase, BackoffMax: o.BackoffMax, MaxErrors: o.MaxErrors,
		Logf: o.Logf,
	}
}

// connLeases is sweep.Leases over a Conn.
type connLeases struct {
	conn  Conn
	hooks faultinject.WorkerHooks
	// task is the last granted task; hooked is the token whose commit
	// hooks already ran, so a redelivered commit does not rerun them.
	task   Task
	hooked uint64
}

func (l *connLeases) Claim(ctx context.Context, worker string) (sweep.Grant, error) {
	resp, err := l.conn.Call(ctx, Request{Op: "claim", Worker: worker})
	if err = wireErr(resp, err); err != nil {
		return sweep.Grant{State: sweep.ClaimFailed}, err
	}
	switch {
	case resp.Done:
		return sweep.Grant{State: sweep.ClaimDone}, nil
	case resp.Task == nil:
		return sweep.Grant{State: sweep.ClaimEmpty}, nil
	}
	l.task = *resp.Task
	if l.hooks.AfterClaim != nil {
		l.hooks.AfterClaim(l.task.Cell)
	}
	return sweep.Grant{
		State: sweep.ClaimGranted, Cell: l.task.Cell, Token: resp.Token,
		TTL: time.Duration(resp.TTLMillis) * time.Millisecond,
	}, nil
}

func (l *connLeases) Renew(ctx context.Context, worker string, cell int, token uint64) error {
	return wireErr(l.conn.Call(ctx, Request{Op: "renew", Worker: worker, Cell: cell, Token: token}))
}

func (l *connLeases) Commit(ctx context.Context, worker string, cell int, token uint64, res sim.Result) error {
	copies := 1
	if token != l.hooked {
		l.hooked = token
		if l.hooks.BeforeCommit != nil {
			l.hooks.BeforeCommit(cell)
		}
		if l.hooks.CommitCopies != nil {
			copies = l.hooks.CommitCopies(cell)
		}
	}
	req := Request{Op: "commit", Worker: worker, Cell: cell, Token: token, Result: &res}
	err := wireErr(l.conn.Call(ctx, req))
	for i := 1; i < copies && err == nil; i++ {
		// Duplicate delivery, for drills: the coordinator fences it.
		_, _ = l.conn.Call(ctx, req)
	}
	return err
}

// Fail reports a failed attempt. A canceled one is the worker's hard
// stop, not the cell's fault: its lease is released instead, so the
// cell is claimable at once with no failure charged.
func (l *connLeases) Fail(ctx context.Context, worker string, cell int, token uint64, kind sweep.FailKind, o sweep.Outcome) error {
	req := Request{Op: "fail", Worker: worker, Cell: cell, Token: token, Reason: o.Err.Error()}
	if kind == sweep.FailCanceled {
		req = Request{Op: "release", Worker: worker, Cell: cell, Token: token}
	}
	return wireErr(l.conn.Call(ctx, req))
}

func (l *connLeases) Goodbye(ctx context.Context, worker string) {
	_, _ = l.conn.Call(ctx, Request{Op: "goodbye", Worker: worker})
}

// wireErr maps a call's outcome to the lease interface's errors: a
// fenced response wraps resume.ErrFenced, a coordinator-side error is
// a refusal.
func wireErr(resp Response, err error) error {
	switch {
	case err != nil:
		return err
	case resp.Fenced:
		return fmt.Errorf("dist: %w", resume.ErrFenced)
	case resp.Error != "":
		return fmt.Errorf("dist: coordinator refused: %s", resp.Error)
	}
	return nil
}
