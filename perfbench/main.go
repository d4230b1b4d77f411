// Command perfbench is the repository's benchmark: four workloads, one
// per surface of the system, each measured end to end (untraced) or
// broken down by layer (traced). See README.md in this directory.
//
//	perfbench --workload pf-paper --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// The exit code is 1 when any output check failed, 2 on bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"compaction/internal/mm"
	_ "compaction/internal/mm/all"
	"compaction/internal/word"
)

// managerNames is every registered manager, captured before the traced
// runs add their bench aliases to the registry.
var managerNames = mm.Names()

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 9

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tiny     bool   // test-sized inputs through the same code paths
	tmp      string // parent of every temporary directory
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "test-sized inputs")
	fs.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "directory for temporary files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.traced = trace == 1
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := newWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "# env: workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		o.workload, o.seed, o.seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	res, err := bench(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	for _, n := range res.notes {
		fmt.Fprintln(stderr, "perfbench: check failed:", n)
	}
	if !res.correct {
		return 1
	}
	return 0
}

// job is what one job of a workload reports.
type job struct {
	wall  time.Duration // submission to result
	first time.Duration // submission to the first result the user sees
	cells int
	ops   int64 // simulated allocations + frees + moves
	moves int64 // simulated moves
	moved int64 // simulated words moved
}

// tally counts checked units — cells, jobs, HTTP responses, output
// checks — and the failures among them. It is safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
}

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// workload is one benchmark scenario.
type workload interface {
	// setup builds everything the first timed operation needs; it is
	// timed, and repeated setupReps times (teardown between).
	setup() error
	teardown()
	// prepare computes reference outputs the checks compare against.
	// It runs after setup and is not timed.
	prepare(t *tally) error
	// lanes is the number of concurrent client loops.
	lanes() int
	// job runs one job on client loop lane; tr is nil when untraced.
	job(tr *tracer, lane int, t *tally) (job, bool)
	// maxM is the largest live bound any cell runs at.
	maxM() word.Size
	// peak returns the peak RSS to report for a phase.
	peak(ph *phase) float64
	// layers adds the workload's own per-layer metrics after a traced
	// phase, and returns the lane time the traced phase had.
	layers(tr *tracer, ph *phase, m metricSet, t *tally) float64
}

// phase is a stretch of jobs run back to back on every lane.
type phase struct {
	wall  time.Duration
	jobs  []job
	hwm   int64
	rt0   rtSample
	rt1   rtSample
	heapB float64
}

func (ph *phase) walls() []float64 {
	out := make([]float64, len(ph.jobs))
	for i, j := range ph.jobs {
		out[i] = float64(j.wall) / 1e6
	}
	return out
}

func (ph *phase) firsts() []float64 {
	out := make([]float64, len(ph.jobs))
	for i, j := range ph.jobs {
		out[i] = float64(j.first) / 1e6
	}
	return out
}

// busy is the job time per lane in seconds: the denominator of every
// rate, so harness work between jobs is not charged to the system.
func (ph *phase) busy(lanes int) float64 {
	var s time.Duration
	for _, j := range ph.jobs {
		s += j.wall
	}
	return s.Seconds() / float64(lanes)
}

func (ph *phase) ops() (ops int64, cells int) {
	for _, j := range ph.jobs {
		ops += j.ops
		cells += j.cells
	}
	return ops, cells
}

// runPhase runs jobs on every lane until d has passed (each lane runs
// at least one), with tracing when tr is non-nil.
func runPhase(w workload, d time.Duration, tr *tracer, t *tally) *phase {
	freshPeak()
	ph := &phase{}
	var hp *heapPeak
	if tr != nil {
		hp = startHeapPeak()
	}
	ph.rt0 = readRuntime()
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for l := 0; l < w.lanes(); l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for first := true; first || time.Since(start) < d; first = false {
				j, ok := w.job(tr, l, t)
				if !ok {
					return
				}
				mu.Lock()
				ph.jobs = append(ph.jobs, j)
				mu.Unlock()
			}
		}(l)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.rt1 = readRuntime()
	ph.hwm = vmHWM()
	if hp != nil {
		ph.heapB = hp.done()
	}
	return ph
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind it, 0 when not a sampled statistic
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func (m metricSet) setN(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, n: n}
}

// result is a run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   metricSet
	notes     []string
}

func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		if m.n > 0 {
			fmt.Fprintf(w, "%-34s %16.6g %-8s n=%d\n", n, m.Value, m.Unit, m.n)
		} else {
			fmt.Fprintf(w, "%-34s %16.6g %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "fail_ratio %d/%d\n", r.failed, r.attempted)
	out, _ := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	fmt.Fprintln(w, string(out))
}

// bench sets the workload up, measures it and checks its outputs.
func bench(w workload, o options) (*result, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()
	t := &tally{}
	if err := w.prepare(t); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	d := time.Duration(o.seconds * float64(time.Second))
	m := metricSet{}
	if !o.traced {
		ph := runPhase(w, d, nil, t)
		endToEnd(w, ph, setups, m)
	} else {
		registerBenchManagers(managerNames)
		base := runPhase(w, d/2, nil, t)
		tr := newTracer()
		setBenchTracer(tr)
		ph := runPhase(w, d/2, tr, t)
		setBenchTracer(nil)
		perLayer(w, tr, base, ph, m, t)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &result{
		correct:   t.failed == 0 && t.attempted > 0,
		attempted: t.attempted,
		failed:    t.failed,
		metrics:   m,
		notes:     t.notes,
	}, nil
}

// endToEnd computes the untraced metrics.
func endToEnd(w workload, ph *phase, setups []float64, m metricSet) {
	busy := ph.busy(w.lanes())
	ops, cells := ph.ops()
	n := len(ph.jobs)
	m.setN("setup_s", median(setups), "s", len(setups))
	m.set("sim_ops_per_s", ratio(float64(ops), busy), "ops/s")
	m.set("cells_per_s", ratio(float64(cells), busy), "cells/s")
	m.set("jobs_per_s", ratio(float64(n), busy), "jobs/s")
	m.setN("job_p50_ms", median(ph.walls()), "ms", n)
	p90, _ := tail(ph.walls(), 0.9)
	m.setN("job_p90_ms", p90, "ms", n)
	m.setN("first_event_p50_ms", median(ph.firsts()), "ms", n)
	peak := w.peak(ph)
	m.set("peak_rss_mb", peak/(1<<20), "MB")
	m.set("rss_b_per_word", peak/float64(w.maxM()), "B/word")
}

// perLayer computes the traced metrics. Layers a workload does not
// exercise report 0.
func perLayer(w workload, tr *tracer, base, ph *phase, m metricSet, t *tally) {
	for _, name := range perLayerNames {
		m.set(name.name, 0, name.unit)
	}
	laneNs := w.layers(tr, ph, m, t)
	agg, _ := tr.flush()
	ops, _ := ph.ops()
	fops := float64(ops)
	njobs := float64(len(ph.jobs))

	// The engine cannot be wrapped inside a sweep, the service or a
	// worker: there its self time is a cell window (manager Reset to
	// its last operation) minus the spans inside the window.
	agg.self[lSim] += agg.windowSum - agg.windowTop
	var covered int64
	for _, s := range agg.self {
		covered += s
	}

	mmOps := agg.opN[lMM]
	mmSelf := agg.opSelf[lMM]
	m.set("mm.alloc_ns_per_op", ratio(float64(mmSelf[opAlloc]), float64(mmOps[opAlloc])), "ns")
	m.set("mm.free_ns_per_op", ratio(float64(mmSelf[opFree]), float64(mmOps[opFree])), "ns")
	m.set("mm.move_ns_per_move", ratio(float64(agg.moveDur), float64(agg.moveN)), "ns")
	var moves, moved int64
	for _, j := range ph.jobs {
		moves += j.moves
		moved += j.moved
	}
	m.set("mm.moves", ratio(float64(moves), njobs), "count")
	m.set("mm.moved_words", ratio(float64(moved), njobs), "words")

	m.set("program.step_ns_per_round", ratio(float64(agg.stepSelf), float64(agg.steps)), "ns")
	m.set("program.placed_ns_per_op", ratio(float64(agg.placedSelf), float64(agg.placed)), "ns")
	m.set("program.moved_ns_per_op", ratio(float64(agg.movedSelf), float64(agg.movedN)), "ns")

	m.set("sim.self_ns_per_op", ratio(float64(agg.self[lSim]), fops), "ns")
	m.setN("sim.round_ms_p50", median(ms(agg.rounds)), "ms", len(agg.rounds))

	if agg.checkN > 0 {
		m.set("check.self_ns_per_op", ratio(float64(agg.self[lCheck]), fops), "ns")
		m.set("check.sweep_ms", float64(agg.checkDur)/float64(agg.checkN)/1e6, "ms")
		m.set("check.sweeps", float64(agg.checkN)/njobs, "count")
	}
	for l, name := range layerNames {
		m.set(name+".self_share", ratio(float64(agg.self[l]), laneNs), "ratio")
	}
	if len(agg.windows) > 0 {
		cellMs := ms(agg.windows)
		m.setN("sweep.cell_ms_p50", median(cellMs), "ms", len(cellMs))
		p90, _ := tail(cellMs, 0.9)
		m.setN("sweep.cell_ms_p90", p90, "ms", len(cellMs))
		m.set("sweep.cell_ms_max", maxOf(cellMs), "ms")
	}

	m.set("runtime.heap_peak_mb", ph.heapB/(1<<20), "MB")
	m.set("runtime.alloc_b_per_op", ratio(ph.rt1.allocBytes-ph.rt0.allocBytes, fops), "B")
	m.set("runtime.gc_cycles", ratio(ph.rt1.gcCycles-ph.rt0.gcCycles, njobs), "count")
	m.set("runtime.gc_pause_ms", ratio(ph.rt1.gcPauseS-ph.rt0.gcPauseS, njobs)*1e3, "ms")

	perBase := ratio(base.busy(w.lanes()), float64(len(base.jobs)))
	perTraced := ratio(ph.busy(w.lanes()), njobs)
	m.set("bench.trace_overhead", ratio(perTraced, perBase)-1, "ratio")
	m.set("bench.unattributed_share", 1-ratio(float64(covered), laneNs), "ratio")
}

// perLayerNames lists every per-layer metric with its unit, in the
// order BENCHMARK.json declares them.
var perLayerNames = []struct{ name, unit string }{
	{"heap.freespace_ns_per_op", "ns"},
	{"heap.occupancy_ns_per_op", "ns"},
	{"heap.replay_alloc_b_per_op", "B"},
	{"mm.alloc_ns_per_op", "ns"},
	{"mm.free_ns_per_op", "ns"},
	{"mm.move_ns_per_move", "ns"},
	{"mm.self_share", "ratio"},
	{"mm.moves", "count"},
	{"mm.moved_words", "words"},
	{"program.step_ns_per_round", "ns"},
	{"program.placed_ns_per_op", "ns"},
	{"program.moved_ns_per_op", "ns"},
	{"program.self_share", "ratio"},
	{"sim.self_ns_per_op", "ns"},
	{"sim.self_share", "ratio"},
	{"sim.round_ms_p50", "ms"},
	{"check.self_ns_per_op", "ns"},
	{"check.sweep_ms", "ms"},
	{"check.sweeps", "count"},
	{"check.self_share", "ratio"},
	{"check.violations", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.alloc_b_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"obs.events_per_job", "count"},
	{"obs.event_bytes_per_job", "B"},
	{"obs.heatmap_bytes", "B"},
	{"obs.heatmap_get_ms_p50", "ms"},
	{"obs.self_share", "ratio"},
	{"sweep.cell_ms_p50", "ms"},
	{"sweep.cell_ms_p90", "ms"},
	{"sweep.cell_ms_max", "ms"},
	{"sweep.busy_share", "ratio"},
	{"sweep.tail_ms", "ms"},
	{"sweep.self_share", "ratio"},
	{"resume.journal_append_us_p50", "us"},
	{"dist.claim_rtt_us_p50", "us"},
	{"dist.claim_rtt_us_p90", "us"},
	{"dist.commit_rtt_us_p50", "us"},
	{"dist.commit_rtt_us_p90", "us"},
	{"dist.server_us_p50", "us"},
	{"dist.transport_us_p50", "us"},
	{"dist.claims_empty", "count"},
	{"dist.claim_useful_ratio", "ratio"},
	{"dist.backoff_ms", "ms"},
	{"dist.renews", "count"},
	{"dist.fenced", "count"},
	{"dist.worker_busy_share", "ratio"},
	{"dist.self_share", "ratio"},
	{"service.submit_ms_p50", "ms"},
	{"service.queue_ms_p50", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.drain_ms_p50", "ms"},
	{"service.result_ms_p50", "ms"},
	{"service.http_errors", "count"},
	{"service.self_share", "ratio"},
	{"bench.trace_overhead", "ratio"},
	{"bench.unattributed_share", "ratio"},
}
