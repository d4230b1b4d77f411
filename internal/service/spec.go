package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"compaction/internal/catalog"
	"compaction/internal/mm"
	"compaction/internal/obs/heapscope"
	"compaction/internal/sim"
	"compaction/internal/sweep"
)

// Stream modes select how much of a job's event firehose is retained
// in its stream log. Scheduler events (retry, checkpoint, degraded)
// and job state transitions are always streamed; the modes govern the
// per-engine events.
const (
	// StreamOff retains only state transitions and scheduler events.
	StreamOff = "off"
	// StreamRounds additionally retains one round event per simulated
	// round — the per-round HS/live/moved series. The default.
	StreamRounds = "rounds"
	// StreamAll retains every engine event (alloc, free, move,
	// move-reject, sweep, round). Verbose: a paper-scale job emits
	// millions of events, and the log truncates at its line limit.
	StreamAll = "all"
)

// Heatmap modes (Spec.Heatmap).
const (
	// HeatmapOn samples each cell's heap into a heatmap artifact. The
	// default: sampling is allocation-free and the artifact is the
	// job's fragmentation record.
	HeatmapOn = "on"
	// HeatmapOff disables heap introspection for the job.
	HeatmapOff = "off"
)

// Spec is the wire form of a job submission: one simulation (C set)
// or a sweep grid (Cs × managers). It is deliberately a plain JSON
// document — the golden schema tests pin it — and everything needed
// to reproduce the job deterministically is inside it, which is what
// makes jobs restart-durable: a spec re-run over its checkpoint
// journal yields byte-identical results.
type Spec struct {
	// Program is a catalog program name ("pf", "random",
	// "profile:server", ...).
	Program string `json:"program"`
	// Manager is a registered manager name, or "all" for the whole
	// portfolio.
	Manager string `json:"manager"`
	// M and N are the model's live bound and largest object size, in
	// words.
	M int64 `json:"m"`
	N int64 `json:"n"`
	// C is the compaction bound for a single-configuration job.
	// Exactly one of C and Cs must be set (Cs may list one value).
	C *int64 `json:"c,omitempty"`
	// Cs sweeps the compaction bound: one cell per (c, manager) pair.
	Cs []int64 `json:"cs,omitempty"`
	// Seed, Rounds and Ell parameterize the program (catalog.Params).
	// Seed defaults to 1, Rounds to 100.
	Seed   int64 `json:"seed,omitempty"`
	Rounds int   `json:"rounds,omitempty"`
	Ell    int   `json:"ell,omitempty"`
	// Shards threads sim.Config.Shards to sharded-* managers.
	Shards int `json:"shards,omitempty"`
	// Parallelism bounds the job's sweep workers; 0 lets the sweep
	// pick (runtime.NumCPU). Deterministic event streams need 1.
	Parallelism int `json:"parallelism,omitempty"`
	// CellTimeoutMS bounds each cell attempt's wall clock.
	CellTimeoutMS int64 `json:"cell_timeout_ms,omitempty"`
	// Retries is how many times a failed cell is re-run before it is
	// declared a hole.
	Retries int `json:"retries,omitempty"`
	// Stream selects the event-stream verbosity (StreamOff,
	// StreamRounds, StreamAll). Empty means StreamRounds.
	Stream string `json:"stream,omitempty"`
	// Heatmap toggles per-cell heap introspection ("on" or "off";
	// empty means on): a heapscope sampler per cell, persisted as the
	// job's heatmap artifact and served on /v1/jobs/{id}/heatmap.
	Heatmap string `json:"heatmap,omitempty"`
	// HeatmapEvery is the heap sampling stride in rounds; 0 means 1
	// (sample every round), negative is rejected. Larger strides cost
	// less and coarsen the time axis of the heatmap.
	HeatmapEvery int `json:"heatmap_every,omitempty"`
}

// withDefaults fills the defaulted fields. It is applied once at
// admission, so the spec persisted in job.json is fully explicit and
// a later change of defaults cannot change what a resumed job runs.
func (sp Spec) withDefaults() Spec {
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Rounds <= 0 {
		sp.Rounds = 100
	}
	if sp.Stream == "" {
		sp.Stream = StreamRounds
	}
	if sp.Heatmap == "" {
		sp.Heatmap = HeatmapOn
	}
	if sp.HeatmapEvery == 0 {
		sp.HeatmapEvery = 1
	}
	return sp
}

// cs returns the compaction bounds the job runs, however spelled.
func (sp Spec) cs() []int64 {
	if len(sp.Cs) > 0 {
		return sp.Cs
	}
	if sp.C != nil {
		return []int64{*sp.C}
	}
	return nil
}

// managers resolves the manager list.
func (sp Spec) managers() []string {
	if sp.Manager == "all" {
		return mm.Names()
	}
	return []string{sp.Manager}
}

// CellCount is the number of grid cells the job will run — the unit
// the per-tenant cell quota is charged in.
func (sp Spec) CellCount() int {
	return len(sp.cs()) * len(sp.managers())
}

// Validate rejects malformed specs with messages fit for a 400 body.
func (sp Spec) Validate() error {
	if sp.Program == "" {
		return fmt.Errorf("spec: program is required")
	}
	if sp.Manager == "" {
		return fmt.Errorf("spec: manager is required")
	}
	if sp.C != nil && len(sp.Cs) > 0 {
		return fmt.Errorf("spec: set c or cs, not both")
	}
	if len(sp.cs()) == 0 {
		return fmt.Errorf("spec: one of c or cs is required")
	}
	switch sp.Stream {
	case StreamOff, StreamRounds, StreamAll:
	default:
		return fmt.Errorf("spec: unknown stream mode %q (want %q, %q or %q)",
			sp.Stream, StreamOff, StreamRounds, StreamAll)
	}
	switch sp.Heatmap {
	case HeatmapOn, HeatmapOff:
	default:
		return fmt.Errorf("spec: unknown heatmap mode %q (want %q or %q)",
			sp.Heatmap, HeatmapOn, HeatmapOff)
	}
	if sp.HeatmapEvery < 0 {
		return fmt.Errorf("spec: heatmap_every must be non-negative")
	}
	if sp.CellTimeoutMS < 0 || sp.Retries < 0 || sp.Parallelism < 0 {
		return fmt.Errorf("spec: cell_timeout_ms, retries and parallelism must be non-negative")
	}
	_, pow2, err := catalog.New(sp.Program, sp.params())
	if err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if sp.Manager != "all" {
		if _, err := mm.New(sp.Manager); err != nil {
			return fmt.Errorf("spec: %w (have %s)", err, strings.Join(mm.Names(), ", "))
		}
	}
	// Validate the model configuration for every cell up front, so an
	// admission decision never accepts a job that fails at start.
	for _, c := range sp.cs() {
		cfg := sp.config(c, pow2)
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
	}
	return nil
}

func (sp Spec) params() catalog.Params {
	return catalog.Params{Seed: sp.Seed, Rounds: sp.Rounds, Ell: sp.Ell}
}

func (sp Spec) config(c int64, pow2 bool) sim.Config {
	return sim.Config{M: sp.M, N: sp.N, C: c, Pow2Only: pow2, Shards: sp.Shards}
}

// Cells expands the spec into its sweep grid.
func (sp Spec) Cells() ([]sweep.Cell, error) {
	mk, pow2, err := catalog.New(sp.Program, sp.params())
	if err != nil {
		return nil, err
	}
	base := sim.Config{M: sp.M, N: sp.N, Pow2Only: pow2, Shards: sp.Shards}
	return sweep.Grid(base, sp.cs(), sp.managers(), sp.Program, mk), nil
}

// JournalParams is the opaque program-identity string bound into the
// job's checkpoint journal header. The cell fingerprints already
// cover the grid shape (index, label, manager, config); everything
// else that changes what a cell computes must appear here, so a
// journal can never be resumed under an edited spec.
func (sp Spec) JournalParams() string {
	return fmt.Sprintf("program=%s seed=%d rounds=%d ell=%d", sp.Program, sp.Seed, sp.Rounds, sp.Ell)
}

// Options builds the job's sweep options (journal, tracers, monitor
// and heap probes are attached by the runner).
func (sp Spec) options() sweep.Options {
	return sweep.Options{
		Parallelism: sp.Parallelism,
		CellTimeout: time.Duration(sp.CellTimeoutMS) * time.Millisecond,
		Retries:     sp.Retries,
		Params:      sp.JournalParams(),
	}
}

// heatmapOn reports whether the job samples its cells' heaps.
func (sp Spec) heatmapOn() bool { return sp.Heatmap != HeatmapOff }

// heapscopeConfig is the per-cell sampler configuration the spec
// implies: one shard per heap shard (so sharded managers get per-shard
// rows) over the model's default capacity, heapscope defaults
// otherwise. It must be a pure function of the spec — a resumed job
// rebuilds identical samplers, which is half of what makes resumed
// heatmaps byte-identical.
func (sp Spec) heapscopeConfig() heapscope.Config {
	cfg := heapscope.Config{}
	if sp.Shards > 1 {
		cfg.Shards = sp.Shards
		cfg.Capacity = sp.M * sim.DefaultCapacityFactor
	}
	return cfg
}

// ParseSpec decodes and validates a submission body. Unknown fields
// are rejected: a typo'd quota-relevant field (say "paralellism")
// silently ignored would run a different job than the tenant asked
// for.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	sp = sp.withDefaults()
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}
