// Package resume implements durable checkpoints for long-running
// sweeps. One append-only record log backs both of its surfaces: the
// Journal a single-process sweep checkpoints completed cells into, and
// the epoch-fenced Ledger a distributed coordinator records its lease
// decisions in.
//
// The log format is NDJSON: a header line binding the log to one
// specific grid (its fingerprint, cell count, and an opaque caller
// params string), followed by one record per line. Every record is
// written and synced on its own, so an acknowledged record survives a
// crash. Replay stops at the first line that does not parse — the
// torn tail of a writer killed mid-append — and keeps the prefix;
// before its first append a writer truncates the file back to that
// prefix, so no record is ever appended onto torn bytes. A log whose
// header does not match the grid being run is refused rather than
// silently merged, so stale checkpoints cannot corrupt a new
// experiment.
//
// Resume contract: the fingerprint covers the cell's index, label,
// manager and full model configuration. Program identity (adversary
// kind, seed, rounds) is NOT part of sim.Config, so callers must fold
// anything that changes the program's behavior into either the cell
// label or the log's params string; compactsim encodes
// adversary/seed/rounds/ell in params for exactly this reason.
package resume

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"compaction/internal/sim"
)

// ErrMismatch reports a log that belongs to a different grid (or a
// different program parameterization) than the one being resumed.
var ErrMismatch = errors.New("resume: log does not match this grid")

// CellKey identifies one sweep cell for fingerprinting.
type CellKey struct {
	// Index is the cell's position in the grid. Including it keeps two
	// otherwise-identical cells (same label, manager, config) distinct.
	Index int
	// Label and Manager mirror the sweep cell's fields.
	Label, Manager string
	// Config is the full model configuration of the run.
	Config sim.Config
}

// Fingerprint returns a deterministic 64-bit FNV-1a fingerprint of the
// key, rendered as fixed-width hex. It is stable across processes and
// platforms: only explicit field values are hashed, never memory
// layout.
func Fingerprint(k CellKey) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d|%d|%d|%t|%d|%d|%d",
		k.Index, k.Label, k.Manager,
		k.Config.M, k.Config.N, k.Config.C, k.Config.Pow2Only,
		k.Config.Capacity, k.Config.MaxRounds, k.Config.Index)
	return fmt.Sprintf("%016x", h.Sum64())
}

// GridFingerprint folds the cell fingerprints (in grid order) into one
// fingerprint identifying the whole grid.
func GridFingerprint(cellFPs []string) string {
	h := fnv.New64a()
	for _, fp := range cellFPs {
		io.WriteString(h, fp)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Log is a record log a scheduler binds, reads and appends to: a
// *Journal or a *Ledger. Restore treats a nil Log, or a nil *Journal
// or *Ledger, as holding nothing.
type Log interface {
	Append(rec LeaseRecord) error
	records() *recordLog
}

// Restored is what a log holds for the grid Restore bound it to.
type Restored struct {
	// Fingerprints are the cell fingerprints, in grid order.
	Fingerprints []string
	// Results maps a cell to its first committed result. Holes are
	// never restored: a cell that failed, or was quarantined, in an
	// earlier run is run again.
	Results map[int]sim.Result
	// MaxToken is the highest lease token in any record, so a resumed
	// coordinator issues strictly newer tokens.
	MaxToken uint64
}

// Restore fingerprints every cell of a grid, binds the log to the grid
// (ErrMismatch when the log holds another one), and adopts what the
// log holds for it. A record is adopted only when its fingerprint
// matches its cell's.
func Restore(l Log, keys []CellKey, params string) (*Restored, error) {
	r := &Restored{
		Fingerprints: make([]string, len(keys)),
		Results:      make(map[int]sim.Result),
	}
	for i, k := range keys {
		r.Fingerprints[i] = Fingerprint(k)
	}
	var rl *recordLog
	if l != nil {
		rl = l.records()
	}
	if rl == nil {
		return r, nil
	}
	if err := rl.Bind(GridFingerprint(r.Fingerprints), len(keys), params); err != nil {
		return nil, err
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	for cell, rec := range rl.st.commits {
		if rec.Result != nil && cell >= 0 && cell < len(keys) && rec.Fingerprint == r.Fingerprints[cell] {
			r.Results[cell] = *rec.Result
		}
	}
	r.MaxToken = rl.st.maxToken
	return r, nil
}

// Entry is one journaled cell outcome. Only commits are restored:
// failed cells are re-run on resume, so a transient fault in the
// original run does not become a permanent hole. Label and Manager
// are covered by the fingerprint and are not stored.
type Entry struct {
	Fingerprint    string
	Index          int
	Label, Manager string
	Result         sim.Result
}

// Journal is the record log at one file path, without fencing: a
// durable set of completed cell outcomes bound to one grid. It holds
// no open file between calls, so it needs no Close. It is safe for
// concurrent use by the sweep's worker pool.
type Journal struct {
	recordLog
}

func (j *Journal) records() *recordLog {
	if j == nil {
		return nil
	}
	return &j.recordLog
}

// Open loads the journal at path, or prepares a fresh one when the
// file does not exist or holds no complete line. A first line that is
// not a current-version header fails the open: the file is not a
// journal, and writing to it would destroy whatever it is.
func Open(path string) (*Journal, error) {
	j := &Journal{}
	if err := j.load(path); err != nil {
		return nil, err
	}
	return j, nil
}

// Len returns the number of distinct cells committed.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.st.commits)
}

// Record durably appends one completed cell as a commit record. It
// returns the number of distinct cells now committed.
func (j *Journal) Record(e Entry) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.appendLocked(LeaseRecord{Op: OpCommit, Cell: e.Index, Fingerprint: e.Fingerprint, Result: &e.Result})
	if err != nil {
		return 0, err
	}
	return len(j.st.commits), nil
}

// Remove deletes the journal file, typically after the sweep it
// guarded completed with no holes, and leaves the journal unbound. A
// missing file is not an error.
func (j *Journal) Remove() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := os.Remove(j.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("resume: %w", err)
	}
	j.hdr, j.bound, j.st = header{}, false, newState()
	j.end, j.nl, j.dirty = 0, true, false
	return nil
}
