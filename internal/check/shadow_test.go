package check

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// shadowCase drives one referee through a script. want lists every
// violation it must report, rendered, followed by its final live
// counters; wantSampled, when set, replaces want in sampled mode.
type shadowCase struct {
	name        string
	run         func(r *Referee, m *stubManager, mv *permissiveMover)
	want        []string
	wantSampled []string
}

func violationStrings(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// shadowCases aim the shadow at IDs and call orders the engine never
// produces. The expected reports are those of the map-keyed shadow the
// dense table replaced; the dense table must match them exactly and
// must never index out of range.
var shadowCases = []shadowCase{
	{
		name: "negative-ids",
		want: []string{
			"[bookkeeping] round 0, free: free of -5 span [0,8), shadow has [0,0) (live=false)",
			"[bookkeeping] round 0, free: object -5 is not live in the shadow",
			"live=4 objects=1",
		},
		run: func(r *Referee, m *stubManager, mv *permissiveMover) {
			m.next = []word.Addr{0, 8}
			r.Allocate(-5, 8, mv)
			r.Allocate(-1, 4, mv)
			r.Free(-5, heap.Span{Addr: 0, Size: 8})
			r.Free(-5, heap.Span{Addr: 0, Size: 8})
		},
	},
	{
		name: "beyond-dense-range",
		want: []string{
			"[bookkeeping] round 0, free: free of 9223372036854775807 span [0,8), shadow has [16,24) (live=true)",
			"live=12 objects=2",
		},
		run: func(r *Referee, m *stubManager, mv *permissiveMover) {
			m.next = []word.Addr{0, 8, 16, 24}
			r.Allocate(1, 8, mv)
			r.Allocate(1<<40, 8, mv)
			r.Allocate(math.MaxInt64, 8, mv)
			r.Allocate(math.MaxInt32+1, 4, mv)
			r.Free(1<<40, heap.Span{Addr: 8, Size: 8})
			r.Free(math.MaxInt64, heap.Span{Addr: 0, Size: 8})
		},
	},
	{
		name: "placed-twice",
		want: []string{
			"[bookkeeping] round 0, alloc: object 3 placed twice",
			"[bookkeeping] round 0, alloc: object 1125899906842624 placed twice",
			"live=16 objects=2",
		},
		run: func(r *Referee, m *stubManager, mv *permissiveMover) {
			m.next = []word.Addr{0, 16, 32, 48}
			r.Allocate(3, 8, mv)
			r.Allocate(3, 8, mv)
			r.Allocate(1<<50, 8, mv)
			r.Allocate(1<<50, 8, mv)
		},
	},
	{
		name: "free-unknown",
		want: []string{
			"[bookkeeping] round 0, free: free of 2 span [8,16), shadow has [0,0) (live=false)",
			"[bookkeeping] round 0, free: object 2 is not live in the shadow",
			"[bookkeeping] round 0, free: free of -7 span [8,16), shadow has [0,0) (live=false)",
			"[bookkeeping] round 0, free: object -7 is not live in the shadow",
			"[bookkeeping] round 0, free: free of 35184372088832 span [8,16), shadow has [0,0) (live=false)",
			"[bookkeeping] round 0, free: object 35184372088832 is not live in the shadow",
			"[bookkeeping] round 0, free: free of 1 span [0,4), shadow has [0,8) (live=true)",
			"live=0 objects=0",
		},
		run: func(r *Referee, m *stubManager, mv *permissiveMover) {
			m.next = []word.Addr{0}
			r.Allocate(1, 8, mv)
			r.Free(2, heap.Span{Addr: 8, Size: 8})
			r.Free(-7, heap.Span{Addr: 8, Size: 8})
			r.Free(1<<45, heap.Span{Addr: 8, Size: 8})
			r.Free(1, heap.Span{Addr: 0, Size: 4}) // right ID, wrong span
		},
	},
	{
		name: "overlap",
		want: []string{
			"[overlap] round 0, alloc: object 2 span [4,12) overlaps a live object",
			"[overlap] round 0, alloc: object 1099511627776 span [96,104) overlaps a live object",
			"live=12 objects=2",
		},
		wantSampled: []string{
			"[overlap] round 0, round: live objects [0,8) and [4,12) overlap",
			"[overlap] round 0, round: live objects [96,104) and [100,104) overlap",
			"live=28 objects=4",
		},
		run: func(r *Referee, m *stubManager, mv *permissiveMover) {
			m.next = []word.Addr{0, 4, 100, 96}
			r.Allocate(1, 8, mv)
			r.Allocate(2, 8, mv)
			r.Allocate(3, 4, mv)
			r.Allocate(1<<40, 8, mv)
		},
	},
	{
		name: "move-unknown",
		want: []string{
			"[bookkeeping] round 0, move: move of object 9 not live in shadow",
			"[bookkeeping] round 0, move: move of object -3 not live in shadow",
			"[bookkeeping] round 0, move: move of object 4398046511104 not live in shadow",
			"[bookkeeping] round 0, lookup: engine lookup of 9 = ([200,200),true), shadow ([0,0),false)",
			"[bookkeeping] round 0, lookup: engine lookup of -3 = ([200,200),true), shadow ([0,0),false)",
			"[bookkeeping] round 0, lookup: engine lookup of 1 = ([0,0),false), shadow ([0,64),true)",
			"live=72 objects=2",
		},
		run: func(r *Referee, m *stubManager, mv *permissiveMover) {
			m.next = []word.Addr{0, 64}
			r.Allocate(1, 64, mv)
			m.hook = func(smv sim.Mover) {
				smv.Move(9, 200)
				smv.Move(-3, 200)
				smv.Move(1<<42, 200)
				smv.Lookup(9)
				smv.Lookup(-3)
				smv.Lookup(1)
			}
			r.Allocate(2, 8, mv)
		},
	},
}

func TestRefereeShadowEdgeCases(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		for _, c := range shadowCases {
			t.Run(fmt.Sprintf("%s/sampled=%t", c.name, sampled), func(t *testing.T) {
				m := &stubManager{}
				r := NewReferee(m)
				if sampled {
					r.SetSampleEvery(4)
				}
				r.Reset(sim.Config{M: 1 << 10, N: 64, C: 4, Capacity: 1 << 12})
				mv := &permissiveMover{spans: map[heap.ObjectID]heap.Span{}}
				c.run(r, m, mv)
				r.CheckRound(sim.Result{Allocated: r.allocated, Moved: r.moved, MaxLive: r.maxLive, HighWater: r.highWater})
				got := append(violationStrings(r.Violations()), fmt.Sprintf("live=%d objects=%d", r.Live(), r.Objects()))
				want := c.want
				if sampled && c.wantSampled != nil {
					want = c.wantSampled
				}
				if !slices.Equal(got, want) {
					t.Errorf("reports:\n got %q\nwant %q", got, want)
				}
			})
		}
	}
}

// TestRefereeShadowResetReuse: Reset forgets every shadowed object,
// dense or not, so a reused referee accepts the same IDs again and
// reports nothing from the previous run.
func TestRefereeShadowResetReuse(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		t.Run(fmt.Sprintf("sampled=%t", sampled), func(t *testing.T) {
			m := &stubManager{}
			r := NewReferee(m)
			if sampled {
				r.SetSampleEvery(4)
			}
			cfg := sim.Config{M: 1 << 10, N: 64, C: 4, Capacity: 1 << 12}
			mv := &permissiveMover{spans: map[heap.ObjectID]heap.Span{}}
			ids := []heap.ObjectID{1, 2, -4, 1 << 40}
			for pass := 0; pass < 2; pass++ {
				r.Reset(cfg)
				if !r.Ok() || r.Live() != 0 || r.Objects() != 0 || r.HighWater() != 0 {
					t.Fatalf("pass %d: reset left %v live=%d objects=%d hs=%d",
						pass, r.Violations(), r.Live(), r.Objects(), r.HighWater())
				}
				m.next = []word.Addr{0, 8, 16, 24}
				for _, id := range ids {
					r.Allocate(id, 8, mv)
				}
				r.Free(2, heap.Span{Addr: 8, Size: 8})
				r.CheckRound(sim.Result{Allocated: 32, MaxLive: 32, HighWater: 32})
				if !r.Ok() || r.Live() != 24 || r.Objects() != 3 {
					t.Fatalf("pass %d: %v live=%d objects=%d", pass, r.Violations(), r.Live(), r.Objects())
				}
			}
		})
	}
}
