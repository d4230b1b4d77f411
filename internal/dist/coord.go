package dist

import (
	"context"
	"fmt"
	"sync"
	"time"

	"compaction/internal/resume"
	"compaction/internal/sweep"
)

// Options configures a Coordinator: the sweep coordinator's options.
// NewCoordinator defaults LeaseTTL to 10s and MaxFailures to 3.
type Options = sweep.CoordOptions

// Coordinator binds a sweep.Coordinator to catalog tasks and the wire:
// Handle serves the lease protocol, each grant carrying its task, and
// marks every requesting worker alive. It is safe for concurrent use
// by any number of transport goroutines.
type Coordinator struct {
	*sweep.Coordinator
	tasks []Task
	ttl   time.Duration
	mon   *sweep.Monitor

	mu      sync.Mutex           //compactlint:lockrank 5
	workers map[string]time.Time //compactlint:guardedby mu
	left    chan struct{}        // signaled (non-blocking) on every goodbye
}

// NewCoordinator builds a coordinator over the tasks, bound to the
// ledger (nil disables durability — useful in-process). A non-empty
// ledger must belong to this exact grid; its commits are adopted so a
// restarted coordinator resumes where its predecessor stopped, and its
// token high-water mark seeds the fencing counter so no new lease
// reuses an old token. Quarantined cells are leased again.
func NewCoordinator(tasks []Task, ledger *resume.Ledger, o Options) (*Coordinator, error) {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.MaxFailures <= 0 {
		o.MaxFailures = 3
	}
	cells := make([]sweep.Cell, len(tasks))
	for i, t := range tasks {
		cells[i] = sweep.Cell{Label: t.Label, Config: t.Config, Manager: t.Manager}
	}
	var log resume.Log
	if ledger != nil {
		log = ledger
	}
	sc, err := sweep.NewCoordinator(cells, log, o)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return &Coordinator{
		Coordinator: sc, tasks: tasks, ttl: o.LeaseTTL, mon: o.Monitor,
		workers: make(map[string]time.Time),
		left:    make(chan struct{}, 1),
	}, nil
}

// Goodbye removes a draining worker from the alive set.
func (c *Coordinator) Goodbye(worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.workers, worker)
	c.mon.WorkersAlive(len(c.workers))
	select {
	case c.left <- struct{}{}:
	default:
	}
}

// touch marks the worker alive and prunes workers silent for 3×TTL
// from the alive set.
func (c *Coordinator) touch(worker string) {
	if worker == "" {
		return
	}
	now := c.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = now
	cutoff := now.Add(-3 * c.ttl)
	for w, seen := range c.workers {
		if seen.Before(cutoff) {
			delete(c.workers, w)
		}
	}
	c.mon.WorkersAlive(len(c.workers))
}

// AwaitGoodbyes is the settled grid's last duty before its transport
// shuts down: a worker in claim back-off has not yet heard Done, and
// would find the coordinator gone. It returns once every worker the
// coordinator has seen said goodbye, one lease TTL passed, or ctx is
// done; claims meanwhile keep answering Done.
func (c *Coordinator) AwaitGoodbyes(ctx context.Context) {
	t := time.NewTimer(c.ttl)
	defer t.Stop()
	for {
		c.mu.Lock()
		n := len(c.workers)
		c.mu.Unlock()
		if n == 0 {
			return
		}
		select {
		case <-c.left:
		case <-t.C:
			return
		case <-ctx.Done():
			return
		}
	}
}
