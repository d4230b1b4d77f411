package compaction_test

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"compaction"
	"compaction/internal/bounds"
	"compaction/internal/check"
	"compaction/internal/core"
	"compaction/internal/obs"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// paperScaleDeadline bounds the wall clock of one refereed paper-scale
// run. Measured on a 2-CPU Xeon host: ~32 s for first-fit and ~71 s
// for threshold. The deadline leaves wide headroom for slower CI
// runners while still catching an accidental return to the
// pre-optimization engine, whose projected time at this scale
// (extrapolated from the ~7× per-round slowdown at M=2^16, compounded
// by per-round reallocation at 256× the object count) is far beyond
// it.
const paperScaleDeadline = 10 * time.Minute

// paperScaleHeapCeiling bounds the sampled peak heap of one refereed
// paper-scale run per manager, in bytes per word of M: the Go heap's
// object bytes, live and not yet collected, polled every 100 ms.
// Measured on a 2-CPU, 8 GB Xeon host: first-fit 134.7, threshold
// 282.4 (its own per-round scratch adds garbage between collections).
// Each ceiling leaves 25% headroom; at M = 2^24 the larger one is
// ~5.9 GB, under the 8 GB such a host has.
var paperScaleHeapCeiling = map[string]float64{"first-fit": 170, "threshold": 355}

// heapSampler polls the Go heap's object bytes (live objects plus
// garbage not yet swept) and keeps the largest value it sees.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) sample() {
	m := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(m)
	if m[0].Value.Kind() == metrics.KindUint64 {
		s.peak = max(s.peak, m[0].Value.Uint64())
	}
}

// Stop ends sampling and returns the peak.
func (s *heapSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// TestSim1PaperScaleSmoke runs P_F at the paper's own scale —
// M = 2^24 words of live space, objects up to n = 2^12 words — against
// a non-moving manager and a compacting one, under a sampled referee.
// It asserts the Theorem 1 conclusion (HS ≥ h·M), that the run
// finishes within a CI-tolerable deadline, and that its sampled peak
// heap stays under paperScaleHeapCeiling bytes per word, so the run
// keeps fitting a stock 8 GB host.
//
// The referee samples its full-heap invariant sweep every
// paperScaleSampleEvery rounds (see Referee.SetSampleEvery): per-round
// exact checking is O(live) per operation, which at 16.7M objects is
// what made this scale unreachable before the sampling knob existed.
func TestSim1PaperScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale smoke skipped in -short mode")
	}
	const sampleEvery = 64
	cfg := sim.Config{M: 1 << 24, N: 1 << 12, C: 16, Pow2Only: true}
	h, _, err := bounds.Theorem1(bounds.Params{M: cfg.M, N: cfg.N, C: cfg.C})
	if err != nil {
		t.Fatal(err)
	}
	floor := word.Size(float64(cfg.M) * h)
	for _, name := range []string{"first-fit", "threshold"} {
		t.Run(name, func(t *testing.T) {
			// A multi-minute run should not be silent: tee SimMetrics
			// into the refereed engine and log its gauges periodically.
			sm := obs.NewSimMetrics(obs.NewRegistry())
			done := make(chan struct{})
			defer close(done)
			go func() {
				tick := time.NewTicker(30 * time.Second)
				defer tick.Stop()
				for {
					select {
					case <-done:
						return
					case <-tick.C:
						t.Logf("%s: progress: %d rounds, live=%d, hs=%d, %d moves, %d sweeps",
							name, sm.Rounds.Value(), sm.Live.Value(), sm.HighWater.Value(),
							sm.Moves.Value(), sm.Sweeps.Value())
					}
				}
			}()
			runtime.GC() // start from this run's own heap
			heap := startHeapSampler(100 * time.Millisecond)
			start := time.Now()
			rep, err := check.RunSampled(cfg, compaction.NewPF(core.Options{}), name, sampleEvery, sm)
			elapsed := time.Since(start)
			perWord := float64(heap.Stop()) / float64(cfg.M)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("refereed paper-scale run failed: %s", rep)
			}
			t.Logf("%s: HS=%d waste=%.3f (floor %.3f) rounds done in %s, peak heap %.1f B/word",
				name, rep.Result.HighWater, rep.Result.WasteFactor(), h, elapsed, perWord)
			if rep.Result.HighWater < floor {
				t.Errorf("HS = %d below Theorem 1 floor h·M = %d (h=%.3f): adversary lost power at paper scale",
					rep.Result.HighWater, floor, h)
			}
			if elapsed > paperScaleDeadline {
				t.Errorf("run took %s, over the %s deadline: paper scale is no longer CI-tolerable",
					elapsed, paperScaleDeadline)
			}
			if ceiling := paperScaleHeapCeiling[name]; perWord > ceiling {
				t.Errorf("peak heap %.1f B/word, over the %.0f B/word ceiling: paper scale no longer fits an 8 GB host",
					perWord, ceiling)
			}
		})
	}
}
