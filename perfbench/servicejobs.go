package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"compaction/internal/service"
	"compaction/internal/sim"
	"compaction/internal/sweep"
	"compaction/internal/word"
)

// serviceJobs drives an in-process compactd over loopback HTTP with a
// closed loop of two clients. Each client submits a job, follows its
// event stream to the terminal state, then fetches its result and its
// heatmap, and repeats. One job is one submission.
type serviceJobs struct {
	tmp  string
	spec service.Spec
	want string

	dir     string
	srv     *service.Server
	cancel  context.CancelFunc
	handler atomic.Pointer[http.Handler]
	http    *http.Server
	base    string
	client  *http.Client

	// The service keeps every finished job in memory, so the benchmark
	// serves epochJobs jobs per service instance: jobs hold gate for
	// reading, a restart holds it for writing.
	gate   sync.RWMutex
	emu    sync.Mutex
	served int
	epoch  int

	refCSV  []byte // sweep.WriteCSV of the same grid run in process
	refHeat []byte // the first job's heatmap
	heatMu  sync.Mutex
	outs    []sweep.Outcome
	jobOps  int64
	moves   int64
	moved   int64

	// Traced accounting.
	tmu     sync.Mutex
	phases  map[string][]float64 // client-side phase durations, ms
	events  []float64            // stream lines per job
	evBytes []float64            // stream bytes per job
	heatB   []float64            // heatmap bytes per job
	httpErr int                  // non-2xx responses seen by the server
}

func newServiceJobs(tmp string, tiny bool) *serviceJobs {
	sp := service.Spec{
		Program: "pf", Manager: "threshold", M: 1 << 12, N: 256,
		Cs:          []int64{8, 16, 32, 64, 128, 256},
		Parallelism: 1,
		Stream:      service.StreamRounds,
		Heatmap:     service.HeatmapOn,
	}
	want := serviceDigest
	if tiny {
		sp.M, sp.N = 1<<10, 16
		sp.Cs = []int64{8, 64}
		want = serviceTinyDigest
	}
	return &serviceJobs{tmp: tmp, spec: sp, want: want, phases: map[string][]float64{}}
}

// epochJobs is how many jobs one service instance serves.
const epochJobs = 8

func (w *serviceJobs) setup() error {
	dir, err := os.MkdirTemp(w.tmp, "service-jobs-")
	if err != nil {
		return err
	}
	w.dir = dir
	if err := w.startService(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.http = &http.Server{Handler: w.middleware(http.HandlerFunc(w.serve)), ReadHeaderTimeout: 10 * time.Second}
	go w.http.Serve(ln)
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}, Timeout: 60 * time.Second}
	// Warm up: one tiny job through the same client path.
	warm := w.spec
	warm.M, warm.N, warm.Cs = 1<<10, 16, []int64{8, 64}
	t := &tally{}
	w.run(warm, nil, nil, t)
	if t.failed > 0 {
		return fmt.Errorf("warm-up job: %s", t.notes[0])
	}
	return nil
}

// startService starts a service instance with a fresh data directory.
func (w *serviceJobs) startService() error {
	w.epoch++
	srv := service.New(service.Config{Dir: filepath.Join(w.dir, fmt.Sprintf("data%d", w.epoch)), MaxActive: 2})
	ctx, cancel := context.WithCancel(context.Background())
	if errs := srv.Start(ctx); len(errs) > 0 {
		cancel()
		return fmt.Errorf("service start: %v", errs[0])
	}
	w.srv, w.cancel = srv, cancel
	h := srv.Handler()
	w.handler.Store(&h)
	return nil
}

// stopService stops the current instance and deletes its data.
func (w *serviceJobs) stopService() {
	if w.cancel == nil {
		return
	}
	w.handler.Store(nil)
	w.cancel()
	w.srv.Wait()
	w.cancel = nil
	os.RemoveAll(filepath.Join(w.dir, fmt.Sprintf("data%d", w.epoch)))
}

func (w *serviceJobs) serve(rw http.ResponseWriter, r *http.Request) {
	h := w.handler.Load()
	if h == nil {
		http.Error(rw, "no service", http.StatusServiceUnavailable)
		return
	}
	(*h).ServeHTTP(rw, r)
}

// middleware counts the responses the service answers with an error.
func (w *serviceJobs) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: rw, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		if sw.code >= 300 {
			w.tmu.Lock()
			w.httpErr++
			w.tmu.Unlock()
		}
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (s *statusWriter) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// Flush keeps the event stream streaming through the wrapper.
func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *serviceJobs) teardown() {
	if w.http != nil {
		w.http.Close()
		w.http = nil
	}
	w.stopService()
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// prepare runs the job's grid in process: every job's result CSV must
// be byte-identical to it, and it gives the simulated operations per
// job.
func (w *serviceJobs) prepare(t *tally) error {
	data, err := json.Marshal(w.spec)
	if err != nil {
		return err
	}
	sp, err := service.ParseSpec(data)
	if err != nil {
		return err
	}
	cells, err := sp.Cells()
	if err != nil {
		return err
	}
	outs, err := sweep.RunOpts(context.Background(), cells, sweep.Options{Parallelism: 1})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, outs); err != nil {
		return err
	}
	w.refCSV = buf.Bytes()
	w.outs = outs
	results := make([]sim.Result, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return o.Err
		}
		results[i] = o.Result
		w.jobOps += o.Result.Allocs + o.Result.Frees + o.Result.Moves
		w.moves += o.Result.Moves
		w.moved += int64(o.Result.Moved)
	}
	got := digest(results)
	t.check(got == w.want, "service-jobs: reference digest %s, recorded %s", got, w.want)
	return nil
}

func (w *serviceJobs) lanes() int             { return 2 }
func (w *serviceJobs) maxM() word.Size        { return w.spec.M }
func (w *serviceJobs) peak(ph *phase) float64 { return float64(ph.hwm) }

func (w *serviceJobs) job(tr *tracer, _ int, t *tally) (job, bool) {
	sp := w.spec
	if tr != nil {
		sp.Manager = benchPrefix + sp.Manager
	}
	w.gate.RLock()
	j, ok := w.run(sp, w.refCSV, tr, t)
	w.gate.RUnlock()
	w.emu.Lock()
	w.served++
	restart := w.served >= epochJobs
	if restart {
		w.served = 0
	}
	w.emu.Unlock()
	if restart {
		w.gate.Lock()
		w.stopService()
		err := w.startService()
		w.gate.Unlock()
		if !t.check(err == nil, "service-jobs: restart: %v", err) {
			return j, false
		}
	}
	return j, ok
}

// run submits sp and follows it to its result and heatmap. With a nil
// ref the outputs are not compared (the warm-up job).
func (w *serviceJobs) run(sp service.Spec, ref []byte, tr *tracer, t *tally) (job, bool) {
	body, err := json.Marshal(sp)
	if !t.check(err == nil, "service-jobs: %v", err) {
		return job{}, false
	}
	t0 := time.Now()
	resp, err := w.client.Post(w.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if !t.check(err == nil, "service-jobs: submit: %v", err) {
		return job{}, false
	}
	var st service.Status
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if !t.check(resp.StatusCode == http.StatusCreated && derr == nil, "service-jobs: submit: %s %v", resp.Status, derr) {
		return job{}, false
	}
	tSubmit := time.Since(t0)

	resp, err = w.client.Get(w.base + "/v1/jobs/" + st.ID + "/events")
	if !t.check(err == nil, "service-jobs: events: %v", err) {
		return job{}, false
	}
	if !t.check(resp.StatusCode == http.StatusOK, "service-jobs: events: %s", resp.Status) {
		resp.Body.Close()
		return job{}, false
	}
	var first, running, terminal time.Duration
	var lines, nbytes int
	final := ""
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Since(t0)
			if lines == 0 {
				first = now
			}
			lines++
			nbytes += len(line)
			var ev struct {
				Ev    string `json:"ev"`
				State string `json:"state"`
			}
			if json.Unmarshal(line, &ev) == nil && ev.Ev == "state" {
				switch ev.State {
				case "queued":
				case "running":
					running = now
				default:
					final, terminal = ev.State, now
				}
			}
		}
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	tDrained := time.Since(t0)
	t.check(final == "done", "service-jobs: job %s ended %q", st.ID, final)

	csv, ok := w.get(st.ID+"/result", t)
	if ref != nil {
		t.check(ok && bytes.Equal(unbench(csv), ref), "service-jobs: job %s result differs from the in-process sweep", st.ID)
	}
	tResult := time.Since(t0)
	heat, ok := w.get(st.ID+"/heatmap", t)
	// The document names its job; the rest must match byte for byte.
	heat = unbench(bytes.Replace(heat, []byte(`"job":"`+st.ID+`"`), []byte(`"job":""`), 1))
	if ref != nil {
		w.heatMu.Lock()
		if w.refHeat == nil && ok {
			w.refHeat = heat
		}
		same := ok && bytes.Equal(heat, w.refHeat)
		w.heatMu.Unlock()
		t.check(same, "service-jobs: job %s heatmap differs from the first job's", st.ID)
	}
	wall := time.Since(t0)

	if tr != nil {
		w.tmu.Lock()
		p := w.phases
		p["submit"] = append(p["submit"], ms1(tSubmit))
		p["queue"] = append(p["queue"], ms1(running-tSubmit))
		p["run"] = append(p["run"], ms1(terminal-running))
		p["drain"] = append(p["drain"], ms1(tDrained-terminal))
		p["result"] = append(p["result"], ms1(tResult-tDrained))
		p["heatmap"] = append(p["heatmap"], ms1(wall-tResult))
		w.events = append(w.events, float64(lines))
		w.evBytes = append(w.evBytes, float64(nbytes))
		w.heatB = append(w.heatB, float64(len(heat)))
		w.tmu.Unlock()
	}
	return job{wall: wall, first: first, cells: len(sp.Cs), ops: w.jobOps, moves: w.moves, moved: w.moved}, true
}

// get fetches a job resource and checks for 200.
func (w *serviceJobs) get(path string, t *tally) ([]byte, bool) {
	resp, err := w.client.Get(w.base + "/v1/jobs/" + path)
	if !t.check(err == nil, "service-jobs: GET %s: %v", path, err) {
		return nil, false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, t.check(err == nil && resp.StatusCode == http.StatusOK, "service-jobs: GET %s: %s %v", path, resp.Status, err)
}

// unbench strips the bench manager prefix, so a traced job's outputs
// compare byte for byte with an untraced one's.
func unbench(b []byte) []byte { return bytes.ReplaceAll(b, []byte(benchPrefix), nil) }

func ms1(d time.Duration) float64 { return float64(d) / 1e6 }

func (w *serviceJobs) layers(tr *tracer, ph *phase, m metricSet, t *tally) float64 {
	agg, _ := tr.flush()
	w.tmu.Lock()
	defer w.tmu.Unlock()
	p := w.phases
	n := len(p["run"])
	// A client lane is the service (submit, stream drain, result), the
	// job's sweep from acknowledgment to the terminal line (minus the
	// engine runs inside it, timed on the server), and obs (the
	// heatmap). Queue wait joins the sweep span: the client sees the
	// "running" line late, so only their sum brackets the engine runs.
	agg.self[lService] += int64(1e6 * (sum(p["submit"]) + sum(p["drain"]) + sum(p["result"])))
	sweepNs := 1e6 * (sum(p["queue"]) + sum(p["run"]))
	agg.self[lSweep] += int64(sweepNs) - agg.windowSum
	agg.self[lObs] += int64(1e6 * sum(p["heatmap"]))
	m.setN("service.submit_ms_p50", median(p["submit"]), "ms", n)
	m.setN("service.queue_ms_p50", median(p["queue"]), "ms", n)
	m.setN("service.run_ms_p50", median(p["run"]), "ms", n)
	m.setN("service.drain_ms_p50", median(p["drain"]), "ms", n)
	m.setN("service.result_ms_p50", median(p["result"]), "ms", n)
	m.set("service.http_errors", float64(w.httpErr), "count")
	m.setN("obs.events_per_job", median(w.events), "count", n)
	m.setN("obs.event_bytes_per_job", median(w.evBytes), "B", n)
	m.set("obs.heatmap_bytes", median(w.heatB), "B")
	m.setN("obs.heatmap_get_ms_p50", median(p["heatmap"]), "ms", n)
	m.set("sweep.busy_share", ratio(float64(agg.windowSum), sweepNs), "ratio")
	// A job has few cells: journal them a few times over for a median.
	var us []float64
	for i := 0; i < 4; i++ {
		if s, ok := journalAppends(w.dir, cellsOf(w.outs), w.spec.JournalParams(), w.outs, t); ok {
			us = append(us, s...)
		}
	}
	m.setN("resume.journal_append_us_p50", median(us), "us", len(us))
	return 2 * float64(ph.wall)
}

func cellsOf(outs []sweep.Outcome) []sweep.Cell {
	cells := make([]sweep.Cell, len(outs))
	for i, o := range outs {
		cells[i] = o.Cell
	}
	return cells
}
