package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"compaction/internal/dist"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/sweep"
	"compaction/internal/word"
)

// distGrid runs P_F over every manager and eight compaction bounds as
// a distributed sweep: a coordinator with a durable ledger behind the
// lease protocol on loopback HTTP, and two in-process workers, each on
// its own connection. One job is one grid.
type distGrid struct {
	tmp  string
	spec dist.GridSpec
	want string

	dir     string
	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	base    string
	cells   []sweep.Cell
	ref     []sim.Result

	// Traced accounting.
	laneNs  int64
	conns   []*leaseConn
	server  []float64 // handler time per request, µs
	serveMu sync.Mutex
}

func newDistGrid(tmp string, tiny bool) *distGrid {
	w := &distGrid{
		tmp: tmp,
		spec: dist.GridSpec{
			Program: "pf", M: 1 << 13, N: 64,
			Cs:       []int64{8, 16, 32, 64, 96, 128, 192, 256},
			Managers: managerNames,
		},
		want: distDigest,
	}
	if tiny {
		w.spec.M, w.spec.N = 1<<10, 16
		w.spec.Cs = []int64{8, 64}
		w.want = distTinyDigest
	}
	return w
}

func (w *distGrid) setup() error {
	dir, err := os.MkdirTemp(w.tmp, "dist-grid-")
	if err != nil {
		return err
	}
	w.dir = dir
	cells, _, err := w.spec.Expand()
	if err != nil {
		return err
	}
	w.cells = cells
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.srv = &http.Server{
		Handler:           http.HandlerFunc(w.serve),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go w.srv.Serve(ln)
	// Warm up: one tiny grid through the same path.
	warm := w.spec
	warm.M, warm.N, warm.Cs = 1<<10, 16, []int64{64}
	t := &tally{}
	w.run(warm, nil, nil, t)
	if t.failed > 0 {
		return fmt.Errorf("warm-up grid: %s", t.notes[0])
	}
	return nil
}

// serve delegates to the current job's coordinator.
func (w *distGrid) serve(rw http.ResponseWriter, r *http.Request) {
	h := w.handler.Load()
	if h == nil {
		http.Error(rw, "no grid", http.StatusServiceUnavailable)
		return
	}
	(*h).ServeHTTP(rw, r)
}

func (w *distGrid) teardown() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// prepare runs the same grid in process: the distributed run must
// merge to exactly these results.
func (w *distGrid) prepare(t *tally) error {
	outs, err := sweep.RunOpts(context.Background(), w.cells, sweep.Options{Parallelism: 2})
	if err != nil {
		return err
	}
	w.ref = make([]sim.Result, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("reference cell %d: %w", i, o.Err)
		}
		w.ref[i] = o.Result
	}
	got := digest(w.ref)
	t.check(got == w.want, "dist-grid: reference digest %s, recorded %s", got, w.want)
	return nil
}

func (w *distGrid) lanes() int             { return 1 }
func (w *distGrid) maxM() word.Size        { return w.spec.M }
func (w *distGrid) peak(ph *phase) float64 { return float64(ph.hwm) }

func (w *distGrid) job(tr *tracer, _ int, t *tally) (job, bool) {
	spec := w.spec
	if tr != nil {
		spec.Managers = benchNames(spec.Managers)
	}
	return w.run(spec, w.ref, tr, t)
}

// run distributes one grid and checks the merged outcomes against ref
// (nil: the warm-up grid, not compared).
func (w *distGrid) run(spec dist.GridSpec, ref []sim.Result, tr *tracer, t *tally) (job, bool) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(w.dir, "ledger-")
	if !t.check(err == nil, "dist-grid: %v", err) {
		return job{}, false
	}
	defer os.RemoveAll(dir)
	_, tasks, err := spec.Expand()
	if !t.check(err == nil, "dist-grid: %v", err) {
		return job{}, false
	}
	led, err := resume.OpenLedger(dir)
	if !t.check(err == nil, "dist-grid: %v", err) {
		return job{}, false
	}
	defer led.Close()
	coord, err := dist.NewCoordinator(tasks, led, dist.Options{Params: spec.Params()})
	if !t.check(err == nil, "dist-grid: %v", err) {
		return job{}, false
	}
	h := dist.Handler(coord)
	if tr != nil {
		h = w.timed(h)
	}
	w.handler.Store(&h)

	ctx := context.Background()
	var firstCommit atomic.Int64
	conns := make([]*leaseConn, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range conns {
		tp := &http.Transport{MaxIdleConnsPerHost: 2}
		defer tp.CloseIdleConnections()
		conns[i] = &leaseConn{
			inner:  &dist.HTTPConn{Base: w.base, Client: &http.Client{Transport: tp, Timeout: 30 * time.Second}},
			start:  t0,
			first:  &firstCommit,
			traced: tr != nil,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := conns[i]
			c.runStart = monoNow()
			errs[i] = dist.NewWorker(c, dist.WorkerOptions{ID: fmt.Sprintf("w%d", i)}).Run(ctx, ctx)
			c.runEnd = monoNow()
		}(i)
	}
	wg.Wait()
	outs := coord.Outcomes()
	wall := time.Since(t0)
	w.handler.Store(nil)
	if tr != nil {
		w.laneNs += 2 * int64(wall)
		w.conns = append(w.conns, conns...)
	}

	j := job{wall: wall, first: time.Duration(firstCommit.Load()), cells: len(outs)}
	for i, err := range errs {
		t.check(err == nil, "dist-grid: worker %d: %v", i, err)
	}
	t.check(coord.Done(), "dist-grid: coordinator not done after its workers returned")
	t.check(coord.Err() == nil, "dist-grid: coordinator: %v", coord.Err())
	for i, o := range outs {
		r := o.Result
		if !t.check(o.Err == nil, "dist-grid: cell %d: %v", i, o.Err) {
			continue
		}
		t.check(ref == nil || (i < len(ref) && r == ref[i]), "dist-grid: cell %d differs from the in-process sweep", i)
		j.ops += r.Allocs + r.Frees + r.Moves
		j.moves += r.Moves
		j.moved += int64(r.Moved)
	}
	return j, true
}

// timed wraps the lease handler, recording each request's server time.
func (w *distGrid) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		d := float64(time.Since(t0)) / 1e3
		w.serveMu.Lock()
		w.server = append(w.server, d)
		w.serveMu.Unlock()
	})
}

func (w *distGrid) layers(tr *tracer, ph *phase, m metricSet, t *tally) float64 {
	agg, _ := tr.flush()
	var claim, commit, all []float64
	var claims, empty, granted, renews, fenced int
	var cellNs, backoffNs, laneNs int64
	for _, c := range w.conns {
		claim = append(claim, c.claimUs...)
		commit = append(commit, c.commitUs...)
		all = append(all, c.rttUs...)
		claims += c.claims
		empty += c.empty
		granted += c.granted
		renews += c.renews
		fenced += c.fenced
		cellNs += c.cellNs
		backoffNs += c.backoffNs
		laneNs += c.runEnd - c.runStart
	}
	njobs := float64(len(ph.jobs))
	// Outside the cells, a worker lane is the lease protocol: round
	// trips, ledger writes behind them, and claim back-off.
	agg.self[lDist] += w.laneNs - cellNs
	// Inside a cell's lease, time outside the engine run is the sweep
	// machinery the worker runs the cell through.
	agg.self[lSweep] += cellNs - agg.windowSum
	p50 := func(xs []float64) float64 { return median(xs) }
	p90 := func(xs []float64) float64 { v, _ := tail(xs, 0.9); return v }
	m.setN("dist.claim_rtt_us_p50", p50(claim), "us", len(claim))
	m.setN("dist.claim_rtt_us_p90", p90(claim), "us", len(claim))
	m.setN("dist.commit_rtt_us_p50", p50(commit), "us", len(commit))
	m.setN("dist.commit_rtt_us_p90", p90(commit), "us", len(commit))
	m.setN("dist.server_us_p50", p50(w.server), "us", len(w.server))
	m.set("dist.transport_us_p50", p50(all)-p50(w.server), "us")
	m.set("dist.claims_empty", float64(empty)/njobs, "count")
	m.set("dist.claim_useful_ratio", ratio(float64(granted), float64(claims)), "ratio")
	m.set("dist.backoff_ms", float64(backoffNs)/1e6/njobs, "ms")
	m.set("dist.renews", float64(renews)/njobs, "count")
	m.set("dist.fenced", float64(fenced)/njobs, "count")
	m.set("dist.worker_busy_share", ratio(float64(cellNs), float64(laneNs)), "ratio")
	return 2 * float64(ph.wall)
}

// leaseConn is a worker's dist.Conn. Untraced, it only notes when the
// grid's first commit landed. Traced, it also times every round trip
// and splits the worker's timeline: after a granted claim the worker
// runs the cell until its next call; after an empty claim it backs
// off until its next call.
type leaseConn struct {
	inner  dist.Conn
	start  time.Time
	first  *atomic.Int64
	traced bool

	mu                             sync.Mutex // renewals come from the heartbeat goroutine
	runStart, runEnd               int64
	lastEnd                        int64
	pending                        int // 0 none, 1 cell, 2 back-off
	claims, empty, granted, renews int
	fenced                         int
	cellNs, backoffNs              int64
	claimUs, commitUs, rttUs       []float64
}

func (c *leaseConn) Call(ctx context.Context, req dist.Request) (dist.Response, error) {
	if !c.traced {
		resp, err := c.inner.Call(ctx, req)
		if req.Op == "commit" && err == nil && resp.OK {
			c.first.CompareAndSwap(0, int64(time.Since(c.start)))
		}
		return resp, err
	}
	t0 := monoNow()
	resp, err := c.inner.Call(ctx, req)
	t1 := monoNow()
	if req.Op == "commit" && err == nil && resp.OK {
		c.first.CompareAndSwap(0, int64(time.Since(c.start)))
	}
	rtt := float64(t1-t0) / 1e3
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rttUs = append(c.rttUs, rtt)
	if resp.Fenced {
		c.fenced++
	}
	if req.Op == "renew" {
		c.renews++
		return resp, err
	}
	gap := t0 - c.lastEnd
	if c.lastEnd == 0 {
		gap = 0
	}
	switch c.pending {
	case 1:
		c.cellNs += gap
	case 2:
		c.backoffNs += gap
	}
	c.lastEnd = t1
	c.pending = 0
	switch req.Op {
	case "claim":
		c.claims++
		c.claimUs = append(c.claimUs, rtt)
		switch {
		case err != nil || resp.Error != "":
		case resp.Task != nil:
			c.granted++
			c.pending = 1
		case !resp.Done:
			c.empty++
			c.pending = 2
		}
	case "commit":
		c.commitUs = append(c.commitUs, rtt)
	}
	return resp, err
}
