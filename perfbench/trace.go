package main

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// layer names one module of the repository. A traced run charges every
// nanosecond of a lane's time to at most one layer (its self time).
type layer uint8

const (
	lMM layer = iota
	lProgram
	lSim
	lCheck
	lObs
	lSweep
	lDist
	lService
	nLayers
)

var layerNames = [nLayers]string{"mm", "program", "sim", "check", "obs", "sweep", "dist", "service"}

// clockBase anchors the monotonic clock every span is measured on.
var clockBase = time.Now()

func monoNow() int64 { return int64(time.Since(clockBase)) }

// frame is an open span on a lane's stack.
type frame struct {
	l     layer
	start int64
	child int64 // time covered by child spans that already ended
}

// Op kinds a manager wrapper counts separately.
const (
	opAlloc = iota
	opFree
	nOps
)

// lane is the span stack of one goroutine. Only its goroutine touches
// it until the tracer merges it, so the hot path takes no lock.
type lane struct {
	clock func() int64
	stack []frame

	self   [nLayers]int64
	topDur int64 // summed durations of spans that ended with an empty stack

	// Manager wrappers, indexed by the wrapper's layer.
	opN    [nLayers][nOps]int64
	opSelf [nLayers][nOps]int64
	// Mover calls made by the manager under test (the mm layer).
	moveN, moveDur int64

	// Program wrapper.
	steps, stepSelf      int64
	placed, placedSelf   int64
	movedN, movedSelf    int64
	lastStep             int64
	rounds               []int64 // Step-to-Step intervals
	checkN, checkDur     int64   // referee CheckRound calls
	winOpen              bool    // a cell window is open on this lane
	winStart, winEnd     int64
	windows              []int64 // closed cell windows: Reset to last op
	windowSum, windowTop int64   // summed windows, and top-level span time inside them
	topAtWin             int64
}

func newLane(clock func() int64) *lane {
	if clock == nil {
		clock = monoNow
	}
	return &lane{clock: clock}
}

func (ln *lane) enter(l layer) {
	ln.stack = append(ln.stack, frame{l: l, start: ln.clock()})
}

// exit closes the innermost span and returns its duration and self
// time (duration minus the time its children covered).
func (ln *lane) exit() (dur, self int64) {
	n := len(ln.stack) - 1
	f := ln.stack[n]
	ln.stack = ln.stack[:n]
	end := ln.clock()
	dur = end - f.start
	self = dur - f.child
	ln.self[f.l] += self
	if n > 0 {
		ln.stack[n-1].child += dur
	} else {
		ln.topDur += dur
		if ln.winOpen {
			ln.winEnd = end
		}
	}
	return dur, self
}

// openWindow starts a cell window (a manager's Reset) and closes the
// previous one: a goroutine runs its cells one after another.
func (ln *lane) openWindow() {
	ln.closeWindow()
	ln.winOpen = true
	ln.winStart = ln.clock()
	ln.winEnd = ln.winStart
	ln.topAtWin = ln.topDur
}

// closeWindow ends the open cell window at the end of its last span.
func (ln *lane) closeWindow() {
	if !ln.winOpen {
		return
	}
	ln.winOpen = false
	d := ln.winEnd - ln.winStart
	ln.windows = append(ln.windows, d)
	ln.windowSum += d
	ln.windowTop += ln.topDur - ln.topAtWin
}

// add folds o's counters into ln.
func (ln *lane) add(o *lane) {
	for l := range ln.self {
		ln.self[l] += o.self[l]
		for k := range ln.opN[l] {
			ln.opN[l][k] += o.opN[l][k]
			ln.opSelf[l][k] += o.opSelf[l][k]
		}
	}
	ln.topDur += o.topDur
	ln.moveN += o.moveN
	ln.moveDur += o.moveDur
	ln.steps += o.steps
	ln.stepSelf += o.stepSelf
	ln.placed += o.placed
	ln.placedSelf += o.placedSelf
	ln.movedN += o.movedN
	ln.movedSelf += o.movedSelf
	ln.rounds = append(ln.rounds, o.rounds...)
	ln.checkN += o.checkN
	ln.checkDur += o.checkDur
	ln.windows = append(ln.windows, o.windows...)
	ln.windowSum += o.windowSum
	ln.windowTop += o.windowTop
}

// tracer hands each goroutine its own lane and merges them at the end
// of a traced phase. Spans stay in memory; nothing is written while a
// run is measured.
type tracer struct {
	mu    sync.Mutex
	lanes map[uint64]*lane
	agg   *lane
}

func newTracer() *tracer {
	return &tracer{lanes: make(map[uint64]*lane), agg: newLane(nil)}
}

// here returns the calling goroutine's lane. Wrappers call it once,
// when they are built, never per operation.
func (t *tracer) here() *lane {
	id := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	ln, ok := t.lanes[id]
	if !ok {
		ln = newLane(nil)
		t.lanes[id] = ln
	}
	return ln
}

// flush merges every lane into the aggregate, and returns the end of
// the last cell window of each lane that had one. Call it only when no
// traced goroutine is running.
func (t *tracer) flush() (agg *lane, lastEnds []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, ln := range t.lanes {
		if ln.winOpen {
			lastEnds = append(lastEnds, ln.winEnd)
		}
		ln.closeWindow()
		t.agg.add(ln)
		delete(t.lanes, id)
	}
	return t.agg, lastEnds
}

// goid parses the current goroutine's id from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
