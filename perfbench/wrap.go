package main

import (
	"sync"

	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/obs"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// progWrap times a sim.Program: Step, Placed and Moved are program
// spans, and the interval between two Step calls is one engine round.
type progWrap struct {
	inner sim.Program
	ln    *lane
}

func (p *progWrap) Name() string { return p.inner.Name() }

func (p *progWrap) Step(v *sim.View) ([]heap.ObjectID, []word.Size, bool) {
	ln := p.ln
	now := ln.clock()
	if ln.lastStep != 0 {
		ln.rounds = append(ln.rounds, now-ln.lastStep)
	}
	ln.lastStep = now
	ln.enter(lProgram)
	frees, allocs, done := p.inner.Step(v)
	_, self := ln.exit()
	ln.steps++
	ln.stepSelf += self
	if done {
		ln.lastStep = 0
	}
	return frees, allocs, done
}

func (p *progWrap) Placed(id heap.ObjectID, s heap.Span) {
	p.ln.enter(lProgram)
	p.inner.Placed(id, s)
	_, self := p.ln.exit()
	p.ln.placed++
	p.ln.placedSelf += self
}

func (p *progWrap) Moved(id heap.ObjectID, from, to heap.Span) bool {
	p.ln.enter(lProgram)
	free := p.inner.Moved(id, from, to)
	_, self := p.ln.exit()
	p.ln.movedN++
	p.ln.movedSelf += self
	return free
}

// mgrWrap times a sim.Manager as layer l, and hands the manager a
// Mover whose calls are spans of layer mvL. With window set, each
// Reset opens a cell window on the lane (used where the engine itself
// cannot be wrapped: cells a sweep, the service or a worker runs).
type mgrWrap struct {
	inner  sim.Manager
	ln     *lane
	l      layer
	window bool
	mv     moverWrap
	rec    *placementLog
}

func newMgrWrap(inner sim.Manager, ln *lane, l, mvL layer) *mgrWrap {
	m := &mgrWrap{inner: inner, ln: ln, l: l}
	m.mv = moverWrap{ln: ln, l: mvL, count: l == lMM}
	return m
}

var (
	_ sim.Manager        = (*mgrWrap)(nil)
	_ sim.RoundCompactor = (*mgrWrap)(nil)
	_ obs.TracerSetter   = (*mgrWrap)(nil)
)

func (m *mgrWrap) Name() string { return m.inner.Name() }

func (m *mgrWrap) Reset(cfg sim.Config) {
	if m.window {
		m.ln.openWindow()
	}
	m.ln.enter(m.l)
	m.inner.Reset(cfg)
	m.ln.exit()
}

func (m *mgrWrap) Allocate(id heap.ObjectID, size word.Size, mv sim.Mover) (word.Addr, error) {
	m.mv.inner = mv
	m.ln.enter(m.l)
	addr, err := m.inner.Allocate(id, size, &m.mv)
	_, self := m.ln.exit()
	m.ln.opN[m.l][opAlloc]++
	m.ln.opSelf[m.l][opAlloc] += self
	if m.rec != nil && err == nil {
		m.rec.add(id, addr, size)
	}
	return addr, err
}

func (m *mgrWrap) Free(id heap.ObjectID, s heap.Span) {
	m.ln.enter(m.l)
	m.inner.Free(id, s)
	_, self := m.ln.exit()
	m.ln.opN[m.l][opFree]++
	m.ln.opSelf[m.l][opFree] += self
	if m.rec != nil {
		m.rec.add(id, s.Addr, -s.Size)
	}
}

func (m *mgrWrap) StartRound(mv sim.Mover) {
	rc, ok := m.inner.(sim.RoundCompactor)
	if !ok {
		return
	}
	m.mv.inner = mv
	m.ln.enter(m.l)
	rc.StartRound(&m.mv)
	m.ln.exit()
}

// SetTracer forwards to the wrapped manager, so wrapping changes no
// event stream.
func (m *mgrWrap) SetTracer(t obs.Tracer) {
	if ts, ok := m.inner.(obs.TracerSetter); ok {
		ts.SetTracer(t)
	}
}

// moverWrap times Mover.Move as a span of layer l; count marks the
// mover handed to the manager under test.
type moverWrap struct {
	inner sim.Mover
	ln    *lane
	l     layer
	count bool
}

func (w *moverWrap) Move(id heap.ObjectID, to word.Addr) (bool, error) {
	w.ln.enter(w.l)
	freed, err := w.inner.Move(id, to)
	dur, _ := w.ln.exit()
	if w.count {
		w.ln.moveN++
		w.ln.moveDur += dur
	}
	return freed, err
}

func (w *moverWrap) Remaining() word.Size { return w.inner.Remaining() }

func (w *moverWrap) Lookup(id heap.ObjectID) (heap.Span, bool) { return w.inner.Lookup(id) }

// placementLog records a non-moving manager's placement stream: one
// entry per allocation (positive size) or free (negative size).
type placementLog struct {
	ids   []heap.ObjectID
	addrs []word.Addr
	sizes []word.Size
}

func (p *placementLog) add(id heap.ObjectID, addr word.Addr, size word.Size) {
	p.ids = append(p.ids, id)
	p.addrs = append(p.addrs, addr)
	p.sizes = append(p.sizes, size)
}

// benchPrefix names the managers the traced runs register: a sweep,
// the service and the distributed workers build managers by name, so
// a wrapped manager must be reachable through mm.New.
const benchPrefix = "bench-"

var (
	benchMu     sync.Mutex
	benchTracer *tracer
	benchRecord *placementLog // taken by the next bench first-fit built
	benchOnce   sync.Once
)

// registerBenchManagers registers benchPrefix+name for every manager
// in names. A bench manager wraps the real one and times it on the
// lane of the goroutine that builds it, against the current tracer.
func registerBenchManagers(names []string) {
	benchOnce.Do(func() {
		for _, name := range names {
			name := name
			mm.Register(benchPrefix+name, func() sim.Manager {
				inner, err := mm.New(name)
				if err != nil {
					panic(err) // registered from mm.Names, so it exists
				}
				benchMu.Lock()
				t := benchTracer
				benchMu.Unlock()
				if t == nil {
					return inner
				}
				w := newMgrWrap(inner, t.here(), lMM, lSim)
				w.window = true
				if name == "first-fit" {
					benchMu.Lock()
					w.rec, benchRecord = benchRecord, nil
					benchMu.Unlock()
				}
				return w
			})
		}
	})
}

// setBenchTracer points the bench managers at t (nil: unwrapped).
func setBenchTracer(t *tracer) {
	benchMu.Lock()
	benchTracer = t
	benchMu.Unlock()
}

// recordNextFirstFit makes the next bench first-fit record its
// placement stream into the returned log.
func recordNextFirstFit() *placementLog {
	rec := &placementLog{}
	benchMu.Lock()
	benchRecord = rec
	benchMu.Unlock()
	return rec
}

// benchNames maps manager names to their bench aliases.
func benchNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = benchPrefix + n
	}
	return out
}
