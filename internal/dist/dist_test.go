package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"compaction/internal/obs"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/sweep"

	_ "compaction/internal/mm/all"
)

// fakeClock is the deterministic clock behind Options.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testSpec is a small real grid: 2 bounds × 2 managers, seeded random
// workload — cheap, deterministic, catalog-resolvable.
func testSpec() GridSpec {
	return GridSpec{
		Program: "random", Seed: 7, Rounds: 60,
		M: 1 << 12, N: 1 << 5,
		Cs: []int64{8, 16}, Managers: []string{"first-fit", "best-fit"},
	}
}

func testTasks(t *testing.T) []Task {
	t.Helper()
	_, tasks, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

func res(i int) sim.Result {
	return sim.Result{Program: "random", Manager: "first-fit", Rounds: 60, HighWater: int64(100 * (i + 1))}
}

// claim claims a lease over the protocol, as a remote worker does: the
// response carries the granted task and token.
func claim(ctx context.Context, c *Coordinator, worker string) (Response, sweep.ClaimState) {
	resp := c.Handle(ctx, Request{Op: "claim", Worker: worker})
	switch {
	case resp.Error != "":
		return resp, sweep.ClaimFailed
	case resp.Done:
		return resp, sweep.ClaimDone
	case resp.Task == nil:
		return resp, sweep.ClaimEmpty
	}
	return resp, sweep.ClaimGranted
}

// fail reports a failed attempt over the protocol, as a remote worker
// does.
func fail(ctx context.Context, c *Coordinator, worker string, cell int, token uint64, reason string) error {
	return wireErr(c.Handle(ctx, Request{Op: "fail", Worker: worker, Cell: cell, Token: token, Reason: reason}), nil)
}

// TestZombieCommitFenced is the core fencing guarantee: a worker that
// goes silent past the lease TTL loses the cell to a successor under a
// larger token, and its late commit — the zombie write — is rejected,
// leaving the successor's result in place.
func TestZombieCommitFenced(t *testing.T) {
	ctx := t.Context()
	clk := newClock()
	mon := sweep.NewMonitor(obs.NewRegistry())
	c, err := NewCoordinator(testTasks(t), nil, Options{
		LeaseTTL: time.Second, Now: clk.Now, Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}

	gA, st := claim(ctx, c, "zombie")
	if st != sweep.ClaimGranted {
		t.Fatalf("claim A: %v", st)
	}
	// The zombie stops heartbeating; the lease expires.
	clk.Advance(2 * time.Second)
	gB, st := claim(ctx, c, "healthy")
	if st != sweep.ClaimGranted {
		t.Fatalf("claim B: %v", st)
	}
	if gB.Task.Cell != gA.Task.Cell {
		t.Fatalf("successor got cell %d, want the expired cell %d", gB.Task.Cell, gA.Task.Cell)
	}
	if gB.Token <= gA.Token {
		t.Fatalf("successor token %d not after zombie token %d", gB.Token, gA.Token)
	}

	// The zombie wakes up and delivers late: fenced.
	zres := res(0)
	zres.HighWater = 424242 // a wrong value that must NOT survive
	if err := c.Commit(ctx, "zombie", gA.Task.Cell, gA.Token, zres); !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("zombie commit: err=%v, want ErrFenced", err)
	}
	// So is its renewal and its failure report.
	if err := c.Renew(ctx, "zombie", gA.Task.Cell, gA.Token); !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("zombie renew: err=%v, want ErrFenced", err)
	}
	if err := fail(ctx, c, "zombie", gA.Task.Cell, gA.Token, "late failure"); !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("zombie fail: err=%v, want ErrFenced", err)
	}

	// The healthy worker commits for real.
	if err := c.Commit(ctx, "healthy", gB.Task.Cell, gB.Token, res(0)); err != nil {
		t.Fatalf("healthy commit: %v", err)
	}
	// And a duplicate delivery of that same commit is fenced as well.
	if err := c.Commit(ctx, "healthy", gB.Task.Cell, gB.Token, res(0)); !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("duplicate commit: err=%v, want ErrFenced", err)
	}

	outs := c.Outcomes()
	if outs[gB.Task.Cell].Result.HighWater != res(0).HighWater {
		t.Fatalf("cell result = %+v; the zombie's write leaked through", outs[gB.Task.Cell].Result)
	}
	p := mon.Snapshot()
	if p.LeasesReassigned != 1 {
		t.Errorf("leases reassigned = %d, want 1", p.LeasesReassigned)
	}
	if p.CommitsFenced != 2 {
		t.Errorf("commits fenced = %d, want 2 (zombie + duplicate)", p.CommitsFenced)
	}
}

// TestQuarantineAfterMaxFailures: a cell that fails on distinct
// workers MaxFailures times becomes a typed poison-cell hole and is
// never leased again; the rest of the grid still settles.
func TestQuarantineAfterMaxFailures(t *testing.T) {
	ctx := t.Context()
	clk := newClock()
	tasks := testTasks(t)
	c, err := NewCoordinator(tasks, nil, Options{
		LeaseTTL: time.Second, MaxFailures: 2, Now: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, st := claim(ctx, c, "w1")
	if st != sweep.ClaimGranted {
		t.Fatal(st)
	}
	poison := g.Task.Cell
	if err := fail(ctx, c, "w1", poison, g.Token, "boom 1"); err != nil {
		t.Fatal(err)
	}
	g2, st := claim(ctx, c, "w2")
	if st != sweep.ClaimGranted || g2.Task.Cell != poison {
		t.Fatalf("retry claim: state=%v cell=%d, want cell %d back", st, g2.Task.Cell, poison)
	}
	if err := fail(ctx, c, "w2", poison, g2.Token, "boom 2"); err != nil {
		t.Fatal(err)
	}
	// Quarantined now: the next claim gets a different cell.
	g3, st := claim(ctx, c, "w3")
	if st != sweep.ClaimGranted || g3.Task.Cell == poison {
		t.Fatalf("claim after quarantine: state=%v cell=%d", st, g3.Task.Cell)
	}
	// Settle the rest.
	if err := c.Commit(ctx, "w3", g3.Task.Cell, g3.Token, res(g3.Task.Cell)); err != nil {
		t.Fatal(err)
	}
	for {
		g, st := claim(ctx, c, "w3")
		if st != sweep.ClaimGranted {
			break
		}
		if err := c.Commit(ctx, "w3", g.Task.Cell, g.Token, res(g.Task.Cell)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Done() {
		t.Fatal("grid not settled with the poison cell quarantined")
	}
	var ce *sweep.CellError
	if !errors.As(c.Outcomes()[poison].Err, &ce) {
		t.Fatalf("quarantined outcome: %+v", c.Outcomes()[poison])
	}
	if ce.Kind != sweep.FailQuarantined || ce.Attempts != 2 || ce.Err.Error() != "boom 2" {
		t.Fatalf("quarantine hole = %+v", ce)
	}
}

// TestCoordinatorResumesFromLedger: a coordinator crash loses nothing
// — the successor replays commits from the ledger,
// seeds its token counter above every issued token, and the
// predecessor (who does not know it is dead) is fenced out.
func TestCoordinatorResumesFromLedger(t *testing.T) {
	ctx := t.Context()
	dir := filepath.Join(t.TempDir(), "ledger")
	tasks := testTasks(t)
	clk := newClock()

	led1, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewCoordinator(tasks, led1, Options{LeaseTTL: time.Second, Now: clk.Now, Params: testSpec().Params()})
	if err != nil {
		t.Fatal(err)
	}
	g1, st := claim(ctx, c1, "w1")
	if st != sweep.ClaimGranted {
		t.Fatal(st)
	}
	if err := c1.Commit(ctx, "w1", g1.Task.Cell, g1.Token, res(g1.Task.Cell)); err != nil {
		t.Fatal(err)
	}
	g2, st := claim(ctx, c1, "w1")
	if st != sweep.ClaimGranted {
		t.Fatal(st)
	}
	// c1 "crashes" here: g2's lease is in flight, never committed.

	led2, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	c2, err := NewCoordinator(tasks, led2, Options{LeaseTTL: time.Second, Now: clk.Now, Params: testSpec().Params()})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Restored() != 1 {
		t.Fatalf("restored = %d, want 1", c2.Restored())
	}
	outs := c2.Outcomes()
	if !outs[g1.Task.Cell].Restored || outs[g1.Task.Cell].Result.HighWater != res(g1.Task.Cell).HighWater {
		t.Fatalf("restored cell %d: %+v", g1.Task.Cell, outs[g1.Task.Cell])
	}

	// The successor's tokens are strictly newer than anything c1 issued.
	g3, st := claim(ctx, c2, "w2")
	if st != sweep.ClaimGranted {
		t.Fatal(st)
	}
	if g3.Token <= g2.Token {
		t.Fatalf("successor token %d not above predecessor high-water %d", g3.Token, g2.Token)
	}

	// The predecessor still thinks it owns the grid; its next ledger
	// write is fenced and it stops granting.
	g4, st := claim(ctx, c1, "w1")
	_ = g4
	if st != sweep.ClaimFailed {
		t.Fatalf("stale coordinator claim: state=%v, want sweep.ClaimFailed", st)
	}
	if err := c1.Err(); err == nil || !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("stale coordinator Err = %v, want ErrFenced", err)
	}
}

// TestBindRefusesForeignLedger: a ledger written for one grid refuses
// a coordinator running different flags.
func TestBindRefusesForeignLedger(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	tasks := testTasks(t)
	led1, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(tasks, led1, Options{Params: testSpec().Params()}); err != nil {
		t.Fatal(err)
	}
	led1.Close()

	led2, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if _, err := NewCoordinator(tasks, led2, Options{Params: "adv=random seed=8 rounds=60 ell=0"}); !errors.Is(err, resume.ErrMismatch) {
		t.Fatalf("foreign params bind: err=%v, want ErrMismatch", err)
	}
}

// startPipeWorker wires a worker to the coordinator over an in-process
// NDJSON pipe pair — the same framing the stdio transport uses.
func startPipeWorker(ctx context.Context, c *Coordinator, o WorkerOptions, errc chan<- error) {
	cr, cw := io.Pipe()
	sr, sw := io.Pipe()
	go func() { _ = ServeLines(ctx, c, cr, sw) }()
	w := NewWorker(NewLineConn(sr, cw), o)
	go func() {
		errc <- w.Run(ctx, ctx)
		cw.Close()
	}()
}

// TestDistributedMergeByteIdentical is the acceptance core: the same
// grid run single-process and run distributed (3 pipe workers, one of
// them double-delivering a commit) must merge to byte-identical CSV.
func TestDistributedMergeByteIdentical(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(t.Context()), time.Minute)
	defer cancel()
	spec := testSpec()
	cells, tasks, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}

	outs, err := sweep.RunOpts(ctx, cells, sweep.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sweep.WriteCSV(&want, outs); err != nil {
		t.Fatal(err)
	}

	mon := sweep.NewMonitor(obs.NewRegistry())
	coord, err := NewCoordinator(tasks, nil, Options{LeaseTTL: 2 * time.Second, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 3)
	for i := 0; i < 3; i++ {
		o := WorkerOptions{ID: fmt.Sprintf("w%d", i)}
		if i == 0 {
			// Worker 0 double-delivers every commit; fencing must absorb it.
			o.Hooks.CommitCopies = func(int) int { return 2 }
		}
		startPipeWorker(ctx, coord, o, errc)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	var got bytes.Buffer
	if err := sweep.WriteCSV(&got, coord.Outcomes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("distributed CSV differs from single-process CSV:\n--- single\n%s\n--- distributed\n%s", want.Bytes(), got.Bytes())
	}
	if fenced := mon.Snapshot().CommitsFenced; fenced == 0 {
		t.Error("duplicate deliveries were not fenced (gauge is zero)")
	}
}

// TestHTTPTransportEndToEnd runs a worker against the real HTTP
// handler and checks the grid settles.
func TestHTTPTransportEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(t.Context()), time.Minute)
	defer cancel()
	tasks := testTasks(t)
	coord, err := NewCoordinator(tasks, nil, Options{LeaseTTL: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(coord))
	defer srv.Close()

	w := NewWorker(&HTTPConn{Base: srv.URL}, WorkerOptions{ID: "http-worker"})
	if err := w.Run(ctx, ctx); err != nil {
		t.Fatal(err)
	}
	if !coord.Done() {
		t.Fatal("grid not settled")
	}
	for i, o := range coord.Outcomes() {
		if o.Err != nil {
			t.Errorf("cell %d: %v", i, o.Err)
		}
	}
}

// TestWorkersInBackoffSeeDone: the grid settles while both workers
// sleep in claim back-off. A coordinator that lingers until their
// goodbyes, then shuts its server down, lets both exit cleanly instead
// of burning their error budget on refused connections.
func TestWorkersInBackoffSeeDone(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(t.Context()), time.Minute)
	defer cancel()
	tasks := testTasks(t)[:1]
	coord, err := NewCoordinator(tasks, nil, Options{LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(coord, l)
	// The test holds the only cell, so both workers find nothing to
	// claim and back off.
	g, st := claim(ctx, coord, "holder")
	if st != sweep.ClaimGranted {
		t.Fatalf("claim = %v, want granted", st)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		w := NewWorker(&HTTPConn{Base: "http://" + l.Addr().String()}, WorkerOptions{
			ID: fmt.Sprintf("w%d", i), BackoffBase: 100 * time.Millisecond, BackoffMax: 200 * time.Millisecond, MaxErrors: 3,
		})
		go func() { errs <- w.Run(ctx, ctx) }()
	}
	for {
		coord.mu.Lock()
		n := len(coord.workers)
		coord.mu.Unlock()
		if n == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := coord.Commit(ctx, "holder", g.Task.Cell, g.Token, res(0)); err != nil {
		t.Fatal(err)
	}
	coord.Goodbye("holder")
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	coord.AwaitGoodbyes(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// TestWorkerDrain: a canceled claim context ends the loop cleanly with
// a goodbye, without touching the run context.
func TestWorkerDrain(t *testing.T) {
	tasks := testTasks(t)
	coord, err := NewCoordinator(tasks, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(coord))
	defer srv.Close()

	runCtx := t.Context()
	claimCtx, drain := context.WithCancel(runCtx)
	drain() // drained before the first claim
	w := NewWorker(&HTTPConn{Base: srv.URL}, WorkerOptions{ID: "drainer"})
	if err := w.Run(runCtx, claimCtx); err != nil {
		t.Fatalf("drained worker: %v", err)
	}
	if coord.Done() {
		t.Fatal("nothing ran, yet the grid settled")
	}
}

// TestHandleProtocolErrors pins the wire behavior for malformed and
// fenced traffic.
func TestHandleProtocolErrors(t *testing.T) {
	ctx := t.Context()
	coord, err := NewCoordinator(testTasks(t), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp := coord.Handle(ctx, Request{Op: "explode"}); resp.Error == "" {
		t.Error("unknown op accepted")
	}
	if resp := coord.Handle(ctx, Request{Op: "commit", Worker: "w", Cell: 0, Token: 1}); resp.Error == "" {
		t.Error("commit without result accepted")
	}
	// A commit under a never-issued token is fenced, not an error.
	if resp := coord.Handle(ctx, Request{Op: "commit", Worker: "w", Cell: 0, Token: 99, Result: &sim.Result{}}); !resp.Fenced {
		t.Errorf("stale commit response: %+v", resp)
	}
	// Claim/goodbye round-trip.
	resp := coord.Handle(ctx, Request{Op: "claim", Worker: "w"})
	if !resp.OK || resp.Task == nil || resp.TTLMillis <= 0 {
		t.Fatalf("claim response: %+v", resp)
	}
	if resp := coord.Handle(ctx, Request{Op: "goodbye", Worker: "w"}); !resp.OK {
		t.Errorf("goodbye response: %+v", resp)
	}
}

// TestExpandMatchesSweepGrid: the wire tasks and the in-process cells
// agree on order and fingerprint-relevant fields — the invariant the
// byte-identical merge rests on.
func TestExpandMatchesSweepGrid(t *testing.T) {
	cells, tasks, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 || len(tasks) != 4 {
		t.Fatalf("grid size: %d cells, %d tasks", len(cells), len(tasks))
	}
	for i := range cells {
		if tasks[i].Cell != i {
			t.Errorf("task %d numbered %d", i, tasks[i].Cell)
		}
		if tasks[i].Label != cells[i].Label || tasks[i].Manager != cells[i].Manager || tasks[i].Config != cells[i].Config {
			t.Errorf("task %d diverges from cell: %+v vs %+v", i, tasks[i], cells[i])
		}
		// And the reconstructed cell on the worker side matches again.
		rc, err := tasks[i].MakeCell()
		if err != nil {
			t.Fatal(err)
		}
		if rc.Label != cells[i].Label || rc.Manager != cells[i].Manager || rc.Config != cells[i].Config {
			t.Errorf("reconstructed cell %d diverges: %+v", i, rc)
		}
	}
}

// TestDrainDuringClaimBackoff: a drain reaches a worker sleeping in
// claim back-off at once. The worker polls a grid whose only cell is
// leased to someone else, with a back-off far longer than the test's
// patience; canceling claimCtx must still end Run cleanly.
func TestDrainDuringClaimBackoff(t *testing.T) {
	ctx := t.Context()
	coord, err := NewCoordinator(testTasks(t)[:1], nil, Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(coord))
	defer srv.Close()
	if _, st := claim(ctx, coord, "holder"); st != sweep.ClaimGranted {
		t.Fatalf("claim = %v, want granted", st)
	}
	claimCtx, drain := context.WithCancel(ctx)
	defer drain()
	w := NewWorker(&HTTPConn{Base: srv.URL}, WorkerOptions{
		ID: "sleeper", BackoffBase: time.Minute, BackoffMax: time.Minute,
	})
	errc := make(chan error, 1)
	go func() { errc <- w.Run(ctx, claimCtx) }()
	// Wait for the worker's first (empty) claim: it is now backing off.
	for {
		coord.mu.Lock()
		_, polled := coord.workers["sleeper"]
		coord.mu.Unlock()
		if polled {
			break
		}
		time.Sleep(time.Millisecond)
	}
	drain()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drained worker: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain ignored while the worker sleeps in claim back-off")
	}
}

// TestRestartReleasesQuarantinedCell: holes are never restored. A
// coordinator restarted over a ledger that holds a quarantine leases
// that cell again, and the grid settles with no hole.
func TestRestartReleasesQuarantinedCell(t *testing.T) {
	ctx := t.Context()
	dir := filepath.Join(t.TempDir(), "ledger")
	tasks := testTasks(t)
	o := Options{MaxFailures: 1, Params: testSpec().Params()}

	led1, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewCoordinator(tasks, led1, o)
	if err != nil {
		t.Fatal(err)
	}
	g, st := claim(ctx, c1, "w1")
	if st != sweep.ClaimGranted {
		t.Fatal(st)
	}
	poison := g.Task.Cell
	if err := fail(ctx, c1, "w1", poison, g.Token, "transient boom"); err != nil {
		t.Fatal(err)
	}
	var ce *sweep.CellError
	if !errors.As(c1.Outcomes()[poison].Err, &ce) || ce.Kind != sweep.FailQuarantined {
		t.Fatalf("cell %d not quarantined: %+v", poison, c1.Outcomes()[poison])
	}
	led1.Close()

	led2, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	c2, err := NewCoordinator(tasks, led2, o)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(c2))
	defer srv.Close()
	if err := NewWorker(&HTTPConn{Base: srv.URL}, WorkerOptions{ID: "w2"}).Run(ctx, ctx); err != nil {
		t.Fatal(err)
	}
	if !c2.Done() {
		t.Fatal("grid not settled")
	}
	for i, out := range c2.Outcomes() {
		if out.Err != nil {
			t.Errorf("cell %d: %v", i, out.Err)
		}
	}
}
