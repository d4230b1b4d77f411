package resume

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Version is the record-log format version. Version 1 journals were
// whole-file snapshots; a header with any version but this one is
// refused, so an old file fails loudly instead of being "repaired".
const Version = 2

// header is the first line of every record log.
type header struct {
	Version int    `json:"v"`
	Grid    string `json:"grid"`
	Cells   int    `json:"cells"`
	Params  string `json:"params,omitempty"`
}

// state is what replaying a log's records yields.
type state struct {
	// commits maps a cell to its first commit record.
	commits map[int]LeaseRecord
	// maxToken is the highest token in any record.
	maxToken uint64
}

func newState() state {
	return state{commits: make(map[int]LeaseRecord)}
}

// apply folds one record into the state: the first commit per cell
// wins, later ones are ignored.
func (s *state) apply(rec LeaseRecord) {
	if rec.Token > s.maxToken {
		s.maxToken = rec.Token
	}
	if _, ok := s.commits[rec.Cell]; !ok && rec.Op == OpCommit {
		s.commits[rec.Cell] = rec
	}
}

// recordLog is the one durable log under both the Journal and the
// Ledger: a header line binding it to a grid, then one JSON record per
// line, each appended and synced on its own.
type recordLog struct {
	mu   sync.Mutex
	path string
	// f is a Ledger's held-open handle. A Journal leaves it nil and
	// opens the file per append, so it holds nothing to release.
	f      *os.File
	closed bool
	// fence, if non-nil, runs before every write: the Ledger's epoch
	// check.
	fence func() error
	hdr   header
	bound bool
	st    state
	// end is the offset just past the last record known good; dirty
	// means bytes past end (a torn tail, a failed write) or a missing
	// final newline may be on disk, and the next write repairs them.
	end   int64
	nl    bool
	dirty bool
}

// load is the one replay: it reads the log at path, the header and
// then one record per line up to the first line that does not parse.
// A missing file, or one with no complete line (a torn first write),
// loads unbound. A first line that is not a version-2 header is
// refused: the file is not ours to overwrite.
func (l *recordLog) load(path string) error {
	l.path, l.st, l.nl = path, newState(), true
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	line, err := r.ReadBytes('\n')
	l.dirty = len(line) > 0
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if json.Unmarshal(line, &l.hdr) != nil || l.hdr.Grid == "" {
		return fmt.Errorf("resume: %s: unrecognized log header", path)
	}
	if l.hdr.Version != Version {
		return fmt.Errorf("resume: %s: log format version %d, want %d", path, l.hdr.Version, Version)
	}
	l.bound, l.end = true, int64(len(line))
	for {
		line, err := r.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return fmt.Errorf("resume: %w", err)
		}
		var rec LeaseRecord
		if json.Unmarshal(line, &rec) != nil || rec.Op == "" {
			// Torn tail from a writer killed mid-append: keep the
			// recovered prefix, drop the rest.
			return nil
		}
		l.st.apply(rec)
		l.end += int64(len(line))
		l.nl = err == nil
		if err == io.EOF {
			return nil
		}
	}
}

// Bind ties the log to a grid. An unbound log adopts the identity and
// durably writes its header; a bound one must match exactly, or Bind
// returns ErrMismatch and the file is left untouched.
func (l *recordLog) Bind(gridFP string, cells int, params string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	want := header{Version: Version, Grid: gridFP, Cells: cells, Params: params}
	if l.bound {
		if l.hdr != want {
			return fmt.Errorf("%w: %s holds grid %s (%d cells, params %q), running grid %s (%d cells, params %q)",
				ErrMismatch, l.path, l.hdr.Grid, l.hdr.Cells, l.hdr.Params, gridFP, cells, params)
		}
		return nil
	}
	if err := l.writeLocked(want); err != nil {
		return err
	}
	// A Journal's header write may have created the file: sync the
	// parent directory so the name survives a power cut. A Ledger
	// created its file and synced its directory in OpenLedger.
	if l.f == nil {
		if err := fsyncDir(filepath.Dir(l.path)); err != nil {
			// Still unbound: the next Bind rewrites the header.
			l.end, l.nl, l.dirty = 0, true, true
			return fmt.Errorf("resume: syncing log directory: %w", err)
		}
	}
	l.hdr, l.bound = want, true
	return nil
}

// Append durably appends one record. A Ledger's append fails with
// ErrFenced once a newer epoch has been acquired on its directory: the
// stale writer learns it is dead the moment it tries to write, and the
// log stays single-writer by construction.
func (l *recordLog) Append(rec LeaseRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(rec)
}

// appendLocked durably appends one record and folds it into the state.
func (l *recordLog) appendLocked(rec LeaseRecord) error {
	if !l.bound {
		return fmt.Errorf("resume: %s: append before Bind", l.path)
	}
	if err := l.writeLocked(rec); err != nil {
		return err
	}
	l.st.apply(rec)
	return nil
}

// writeLocked is the one write path: fence check, torn-tail repair,
// then one line written and synced. The repair truncates the file to
// the last good record and newline-terminates it, so a record is never
// appended onto torn bytes.
func (l *recordLog) writeLocked(v any) error {
	if l.closed {
		return fmt.Errorf("resume: %s: log is closed", l.path)
	}
	if l.fence != nil {
		if err := l.fence(); err != nil {
			return err
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	b = append(b, '\n')
	f := l.f
	if f == nil {
		if f, err = os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		defer f.Close() // error paths; the success path checks Close
	}
	if l.dirty {
		if err := f.Truncate(l.end); err != nil {
			return fmt.Errorf("resume: repairing torn tail: %w", err)
		}
		if !l.nl {
			b = append([]byte{'\n'}, b...)
		}
	}
	// Until the sync succeeds the tail is suspect: a failed write
	// leaves it dirty for the next one to repair.
	l.dirty = true
	if _, err := f.Write(b); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if f != l.f {
		if err := f.Close(); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
	}
	l.end += int64(len(b))
	l.nl, l.dirty = true, false
	return nil
}

// fsyncDir syncs a directory's entries to stable storage. It is a
// package variable so the durability regression tests can observe the
// calls and inject failures.
var fsyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("resume: %w", err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	return nil
}

// SyncDir syncs a directory's entries to stable storage. Exported so
// every package that creates or renames durable files
// (internal/service's job store) closes the same window this package
// closes when it creates a log.
func SyncDir(dir string) error { return fsyncDir(dir) }
