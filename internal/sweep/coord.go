package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"compaction/internal/obs"
	"compaction/internal/resume"
	"compaction/internal/sim"
)

// ClaimState classifies a claim: a lease was granted, nothing is
// claimable right now (every unsettled cell is leased), every cell is
// settled (the worker should drain), or the coordinator cannot grant
// (fenced by a successor, or unreachable; the claim's error says
// which).
type ClaimState int

// The claim states.
const (
	ClaimGranted ClaimState = iota
	ClaimEmpty
	ClaimDone
	ClaimFailed
)

// Grant is the answer to a claim. A granted lease names the cell's grid
// index, its fencing token, and the TTL the worker must renew within
// (0: the lease never expires and needs no heartbeat). On an empty
// claim, Wake is closed when a cell may have become claimable or the
// grid settled; nil means nobody will signal, so the worker polls.
type Grant struct {
	State ClaimState
	Cell  int
	Token uint64
	TTL   time.Duration
	Wake  <-chan struct{}
}

// Leases is the lease protocol a Worker drives. *Coordinator
// implements it directly for in-process workers; internal/dist
// implements it over a wire for remote ones. A fencing rejection
// wraps resume.ErrFenced: the lease is no longer the worker's.
type Leases interface {
	Claim(ctx context.Context, worker string) (Grant, error)
	Renew(ctx context.Context, worker string, cell int, token uint64) error
	Commit(ctx context.Context, worker string, cell int, token uint64, res sim.Result) error
	// Fail reports a failed attempt of the given kind; o carries the
	// attempt's error and partial result.
	Fail(ctx context.Context, worker string, cell int, token uint64, kind FailKind, o Outcome) error
	Goodbye(ctx context.Context, worker string)
}

// cellState is a cell's position in the lease lifecycle.
type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellDone
	cellHole
)

// leaseInfo is the live lease on a cellLeased cell.
type leaseInfo struct {
	worker  string
	token   uint64
	expires time.Time
}

// CoordOptions configures a Coordinator.
type CoordOptions struct {
	// LeaseTTL is the heartbeat timeout: a lease not renewed within it
	// expires and its cell becomes claimable again. 0 means leases
	// never expire, which is right for in-process workers: a slow
	// local cell is never leased twice.
	LeaseTTL time.Duration
	// MaxFailures is how many failed attempts make a cell a hole
	// instead of sending it back to pending. <= 0 selects 1.
	MaxFailures int
	// Params is the program-identity string bound into the log header.
	Params string
	// Monitor, if non-nil, observes progress.
	Monitor *Monitor
	// Now is the clock seam lease expiry runs on; nil selects
	// time.Now. Tests drive lease expiry through it deterministically.
	Now func() time.Time

	// RunOpts's in-process settings: the worker count for the
	// monitor's per-worker gauges, the tracer that receives retry,
	// checkpoint and degraded events (serialized by the coordinator),
	// and the observer of each cell the moment it becomes a hole
	// (called outside the coordinator's lock).
	workers int
	tracer  obs.Tracer
	onHole  func(cell int, o Outcome)
}

// Coordinator is the one scheduler: it leases a grid's cells to
// workers under monotonic fencing tokens, sends failed attempts back
// to pending until MaxFailures makes them holes, records every
// decision in its log, and merges the outcomes. It is safe for
// concurrent use.
type Coordinator struct {
	cells []Cell
	fps   []string
	o     CoordOptions
	log   resume.Log

	mu        sync.Mutex     //compactlint:lockrank 10
	state     []cellState    //compactlint:guardedby mu
	lease     []leaseInfo    //compactlint:guardedby mu
	outs      []Outcome      //compactlint:guardedby mu — results, holes, and the last failed attempt
	failN     []int          //compactlint:guardedby mu
	next      uint64         //compactlint:guardedby mu — last issued fencing token
	settled   int            //compactlint:guardedby mu — cells done or holes
	committed int            //compactlint:guardedby mu — cells done, restored ones included
	slots     map[string]int //compactlint:guardedby mu — in-process worker → 1 + its monitor gauge
	wake      chan struct{}  //compactlint:guardedby mu — closed when a cell becomes claimable or the grid settles
	infraErr  error          //compactlint:guardedby mu — first log failure (degraded mode)
	fenced    bool           //compactlint:guardedby mu — a newer coordinator epoch owns the log

	done   chan struct{} // closed when every cell settled
	failed chan struct{} // closed when the coordinator is fenced
}

// NewCoordinator builds a coordinator over the cells, bound to the log
// (nil disables durability). A non-empty log must belong to this exact
// grid; its commits are adopted so a restarted coordinator resumes
// where its predecessor stopped, and its token high-water mark seeds
// the fencing counter so no new lease reuses an old token. Holes are
// never adopted: their cells run again.
func NewCoordinator(cells []Cell, log resume.Log, o CoordOptions) (*Coordinator, error) {
	if o.MaxFailures <= 0 {
		o.MaxFailures = 1
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	keys := make([]resume.CellKey, len(cells))
	for i, c := range cells {
		keys[i] = c.key(i)
	}
	r, err := resume.Restore(log, keys, o.Params)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	c := &Coordinator{
		cells:  cells,
		fps:    r.Fingerprints,
		o:      o,
		log:    log,
		state:  make([]cellState, len(cells)),
		lease:  make([]leaseInfo, len(cells)),
		outs:   make([]Outcome, len(cells)),
		failN:  make([]int, len(cells)),
		next:   r.MaxToken,
		slots:  make(map[string]int),
		wake:   make(chan struct{}),
		done:   make(chan struct{}),
		failed: make(chan struct{}),
	}
	o.Monitor.Begin(len(cells), o.workers)
	for i := range cells {
		c.outs[i].Cell = cells[i]
		if res, ok := r.Results[i]; ok {
			c.state[i] = cellDone
			c.outs[i].Result, c.outs[i].Restored = res, true
			c.settled++
			c.committed++
			o.Monitor.CellRestored()
		}
	}
	if c.settled == len(cells) {
		close(c.done)
	}
	return c, nil
}

// Restored returns how many cells were adopted from the log.
func (c *Coordinator) Restored() int {
	n := 0
	for _, o := range c.Outcomes() {
		if o.Restored {
			n++
		}
	}
	return n
}

// Now reads the coordinator's clock, the one lease expiry runs on.
func (c *Coordinator) Now() time.Time { return c.o.Now() }

// Claim leases the lowest-index claimable cell to the worker. Expired
// leases are reclaimed first, so claims are also the engine that
// detects dead and hung workers: as long as any worker polls, every
// expired lease is reassigned.
func (c *Coordinator) Claim(_ context.Context, worker string) (Grant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.o.Now()
	c.expireLocked(now)
	if c.fenced {
		return Grant{State: ClaimFailed}, c.infraErr
	}
	if c.settled == len(c.cells) {
		return Grant{State: ClaimDone}, nil
	}
	if c.slots[worker] == 0 && len(c.slots) < c.o.workers {
		c.slots[worker] = len(c.slots) + 1
	}
	for i, st := range c.state {
		if st != cellPending {
			continue
		}
		c.next++
		token := c.next
		if err := c.appendLocked(resume.LeaseRecord{
			Op: resume.OpClaim, Cell: i, Fingerprint: c.fps[i],
			Worker: worker, Token: token, Attempt: c.failN[i] + 1,
		}); err != nil && c.fenced {
			return Grant{State: ClaimFailed}, c.infraErr
		}
		// Degraded (log write failed, durability lost): keep granting;
		// the error surfaces from Err after the run.
		c.state[i] = cellLeased
		c.lease[i] = leaseInfo{worker: worker, token: token, expires: now.Add(c.o.LeaseTTL)}
		return Grant{State: ClaimGranted, Cell: i, Token: token, TTL: c.o.LeaseTTL}, nil
	}
	return Grant{State: ClaimEmpty, Wake: c.wake}, nil
}

// Renew extends the worker's lease. ErrFenced means the lease is no
// longer the worker's — it expired and was (or will be) reassigned —
// and the worker must abandon the cell.
func (c *Coordinator) Renew(_ context.Context, worker string, cell int, token uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.o.Now()
	c.expireLocked(now)
	if err := c.checkLeaseLocked(worker, cell, token); err != nil {
		return err
	}
	// Renewals carry no state the replay needs (a crashed coordinator
	// re-expires from claim time at worst), so they are not logged:
	// the log records decisions, not heartbeats.
	c.lease[cell].expires = now.Add(c.o.LeaseTTL)
	return nil
}

// Commit settles a cell with its result. The first valid commit wins;
// a late commit under a superseded token (zombie worker) and any
// duplicate delivery are rejected with ErrFenced and counted in the
// commits_fenced gauge.
func (c *Coordinator) Commit(_ context.Context, worker string, cell int, token uint64, res sim.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.o.Now())
	if err := c.checkLeaseLocked(worker, cell, token); err != nil {
		if errors.Is(err, resume.ErrFenced) {
			c.o.Monitor.CommitFenced()
			// Audit the rejection; a failure to audit must not fail the
			// rejection.
			_ = c.appendLocked(resume.LeaseRecord{
				Op: resume.OpFence, Cell: cell, Fingerprint: c.fps[cell],
				Worker: worker, Token: token, Reason: "stale or duplicate commit",
			})
		}
		return err
	}
	durable := c.log != nil && c.infraErr == nil
	err := c.appendLocked(resume.LeaseRecord{
		Op: resume.OpCommit, Cell: cell, Fingerprint: c.fps[cell],
		Worker: worker, Token: token, Result: &res,
	})
	if err != nil && c.fenced {
		// A fenced coordinator must not settle cells: its successor
		// owns the grid now.
		return fmt.Errorf("sweep: %w", resume.ErrFenced)
	}
	c.state[cell] = cellDone
	c.outs[cell].Result, c.outs[cell].Err = res, nil
	c.committed++
	if err == nil && durable {
		c.o.Monitor.Checkpointed()
		c.emitLocked(obs.Event{Kind: obs.EvCheckpoint, Round: -1, Cell: cell, Count: int64(c.committed)})
	}
	c.settleLocked(worker, false)
	return nil
}

// Fail reports a failed attempt. The cell goes back to pending for
// another attempt until MaxFailures attempts have failed; then it
// becomes a hole of the last attempt's kind. A canceled attempt ends
// its cell at once: the sweep it belonged to is over.
func (c *Coordinator) Fail(_ context.Context, worker string, cell int, token uint64, kind FailKind, o Outcome) error {
	hole, err := c.fail(worker, cell, token, kind, o)
	if hole.Err != nil && c.o.onHole != nil {
		c.o.onHole(cell, hole)
	}
	return err
}

// fail records the failed attempt and returns the cell's outcome if it
// became a hole.
func (c *Coordinator) fail(worker string, cell int, token uint64, kind FailKind, o Outcome) (Outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.o.Now())
	if err := c.checkLeaseLocked(worker, cell, token); err != nil {
		return Outcome{}, err
	}
	c.failN[cell]++
	n := c.failN[cell]
	c.outs[cell].Result, c.outs[cell].Err = o.Result, o.Err
	_ = c.appendLocked(resume.LeaseRecord{
		Op: resume.OpFail, Cell: cell, Fingerprint: c.fps[cell],
		Worker: worker, Token: token, Attempt: n, Reason: o.Err.Error(),
	})
	if c.fenced {
		return Outcome{}, fmt.Errorf("sweep: %w", resume.ErrFenced)
	}
	if kind != FailCanceled && n < c.o.MaxFailures {
		c.state[cell] = cellPending
		c.o.Monitor.Retried()
		c.emitLocked(obs.Event{Kind: obs.EvRetry, Round: -1, Cell: cell, Attempt: n})
		c.signalLocked()
		return Outcome{}, nil
	}
	if kind != FailCanceled {
		_ = c.appendLocked(resume.LeaseRecord{
			Op: resume.OpQuarantine, Cell: cell, Fingerprint: c.fps[cell],
			Worker: worker, Token: token, Attempt: n, Reason: o.Err.Error(),
		})
		c.emitLocked(obs.Event{Kind: obs.EvDegraded, Round: -1, Cell: cell, Attempt: n})
	}
	c.holeLocked(cell, kind, o.Err)
	c.settleLocked(worker, true)
	return c.outs[cell], nil
}

// Release gives a lease back unfinished — the graceful half of a
// remote worker's hard stop. The cell returns to pending with no
// failure charged.
func (c *Coordinator) Release(worker string, cell int, token uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkLeaseLocked(worker, cell, token); err != nil {
		return err
	}
	_ = c.appendLocked(resume.LeaseRecord{
		Op: resume.OpRelease, Cell: cell, Fingerprint: c.fps[cell],
		Worker: worker, Token: token, Reason: "worker drain",
	})
	c.state[cell] = cellPending
	c.signalLocked()
	return nil
}

// Goodbye is a no-op here; transports that track worker liveness act
// on it.
func (c *Coordinator) Goodbye(context.Context, string) {}

// abandon settles every unsettled cell as a hole once the sweep's
// workers have stopped: a cell with failed attempts behind it becomes
// a FailCanceled hole carrying its last error, an untouched one a
// FailSkipped hole carrying cause. It returns the abandoned cells.
func (c *Coordinator) abandon(cause error) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var cells []int
	for i, st := range c.state {
		if st == cellDone || st == cellHole {
			continue
		}
		cells = append(cells, i)
		if c.failN[i] > 0 {
			c.holeLocked(i, FailCanceled, c.outs[i].Err)
			c.settleLocked("", true)
			continue
		}
		c.holeLocked(i, FailSkipped, cause)
		c.o.Monitor.CellSkipped()
	}
	return cells
}

// holeLocked makes the cell a typed hole.
//
//compactlint:lockheld mu
func (c *Coordinator) holeLocked(cell int, kind FailKind, err error) {
	c.state[cell] = cellHole
	c.outs[cell].Err = c.cellErrLocked(cell, kind, err)
}

//compactlint:lockheld mu
func (c *Coordinator) cellErrLocked(cell int, kind FailKind, err error) *CellError {
	return &CellError{
		Label: c.cells[cell].Label, Manager: c.cells[cell].Manager, Index: cell,
		Attempts: c.failN[cell], Kind: kind, Err: err,
	}
}

// settleLocked counts one settled cell and wakes waiting workers once
// the grid is settled.
//
//compactlint:lockheld mu
func (c *Coordinator) settleLocked(worker string, failed bool) {
	c.settled++
	c.o.Monitor.CellDone(c.slots[worker]-1, failed)
	if c.settled == len(c.cells) {
		close(c.done)
		c.signalLocked()
	}
}

// signalLocked wakes every worker waiting on an empty claim.
//
//compactlint:lockheld mu
func (c *Coordinator) signalLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// emitLocked emits one scheduler event; the coordinator's lock
// serializes emissions.
//
//compactlint:lockheld mu
func (c *Coordinator) emitLocked(ev obs.Event) {
	if c.o.tracer != nil {
		c.o.tracer.Emit(ev)
	}
}

// checkLeaseLocked verifies that (worker, cell, token) names the live
// lease. Every mismatch — settled cell, expired-and-reassigned lease,
// wrong worker, superseded token — is a fencing rejection.
//
//compactlint:lockheld mu
func (c *Coordinator) checkLeaseLocked(worker string, cell int, token uint64) error {
	if cell < 0 || cell >= len(c.cells) {
		return fmt.Errorf("sweep: cell %d out of range", cell)
	}
	if c.state[cell] != cellLeased || c.lease[cell].worker != worker || c.lease[cell].token != token {
		return fmt.Errorf("sweep: cell %d token %d from %q: %w", cell, token, worker, resume.ErrFenced)
	}
	return nil
}

// expireLocked reclaims every expired lease (heartbeat timeout).
//
//compactlint:lockheld mu
func (c *Coordinator) expireLocked(now time.Time) {
	if c.o.LeaseTTL <= 0 {
		return
	}
	for i, st := range c.state {
		if st != cellLeased || now.Before(c.lease[i].expires) {
			continue
		}
		_ = c.appendLocked(resume.LeaseRecord{
			Op: resume.OpRelease, Cell: i, Fingerprint: c.fps[i],
			Worker: c.lease[i].worker, Token: c.lease[i].token, Reason: "lease expired",
		})
		c.state[i] = cellPending
		c.o.Monitor.LeaseReassigned()
		c.signalLocked()
	}
}

// appendLocked writes one log record, degrading gracefully: a fencing
// rejection marks the coordinator dead (a successor owns the log), any
// other failure disables durability but lets the run finish; both
// surface from Err.
//
//compactlint:lockheld mu
func (c *Coordinator) appendLocked(rec resume.LeaseRecord) error {
	if c.log == nil || (c.infraErr != nil && !c.fenced) {
		return nil
	}
	err := c.log.Append(rec)
	if err == nil {
		return nil
	}
	if errors.Is(err, resume.ErrFenced) {
		if !c.fenced {
			c.fenced = true
			c.infraErr = fmt.Errorf("sweep: coordinator superseded: %w", err)
			close(c.failed)
			c.signalLocked()
		}
		return err
	}
	if c.infraErr == nil {
		c.infraErr = fmt.Errorf("sweep: checkpointing disabled: %w", err)
	}
	return err
}

// Err returns the first coordinator-infrastructure error: a fencing
// takeover, or a log write failure that degraded durability.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.infraErr
}

// Done reports whether every cell is settled.
func (c *Coordinator) Done() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Wait blocks until every cell is settled, the coordinator is fenced
// by a successor, or ctx is canceled. On normal completion it returns
// Err (nil unless durability degraded mid-run).
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return fmt.Errorf("sweep: %w", context.Cause(ctx))
	case <-c.failed:
		return c.Err()
	case <-c.done:
		return c.Err()
	}
}

// Outcomes merges the grid in cell order: committed results, holes,
// and — for a stopped coordinator — unsettled cells as FailSkipped
// holes. With every cell committed the slice is byte-for-byte what
// any other schedule of the same grid produces for WriteCSV.
func (c *Coordinator) Outcomes() []Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	outs := append([]Outcome(nil), c.outs...)
	for i, st := range c.state {
		if st != cellDone && st != cellHole {
			stopped := errors.New("coordinator stopped before the cell settled")
			outs[i] = Outcome{Cell: c.cells[i], Err: c.cellErrLocked(i, FailSkipped, stopped)}
		}
	}
	return outs
}
