// Lease ledger: the distributed use of the record log.
//
// The Ledger is the same append-only record log the Journal is, kept
// in a directory and fenced, for a coordinator that must survive its
// own crash AND defend against a predecessor that does not know it is
// dead. Two fencing mechanisms stack:
//
//   - Writer epochs fence whole processes. Opening a ledger acquires
//     the next epoch by creating an epoch.<n> marker file with
//     O_EXCL — an atomic, crash-safe acquisition. Every append first
//     checks that no successor epoch exists; a stale coordinator's
//     append fails with ErrFenced instead of corrupting the log.
//   - Lease tokens fence individual workers. The coordinator stamps
//     every claim with a monotonically increasing token and records
//     it here; a zombie worker's late commit carries a superseded
//     token and is rejected upstream (and audited as an op "fence"
//     record when the coordinator chooses to log it).
//
// Appends, replay and torn-tail repair are the record log's: a commit
// acknowledged to a worker is durable, and because epochs serialize
// writers, a torn record is always the last thing a dead writer did.
package resume

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"compaction/internal/sim"
)

// ErrFenced reports an operation by a writer (or a lease holder) that
// has been superseded: a newer epoch owns the ledger, or a newer token
// owns the lease.
var ErrFenced = errors.New("resume: fenced: a newer writer owns this ledger")

// Op enumerates the record kinds.
type Op string

// The lease lifecycle operations a ledger records. A Journal records
// only commits.
const (
	// OpClaim: a worker was granted a lease on a cell.
	OpClaim Op = "claim"
	// OpRenew: the worker heartbeat its lease before expiry.
	OpRenew Op = "renew"
	// OpCommit: the cell completed; Result carries the outcome. The
	// first commit per cell wins; replay ignores later ones.
	OpCommit Op = "commit"
	// OpRelease: the lease was given back unfinished — graceful worker
	// drain, or coordinator-side expiry ahead of reassignment.
	OpRelease Op = "release"
	// OpFail: an attempt failed; Attempt carries the cross-worker
	// failure count so far.
	OpFail Op = "fail"
	// OpQuarantine: the cell failed MaxFailures times across workers
	// and is now a poison-cell hole; it will not be leased again.
	OpQuarantine Op = "quarantine"
	// OpFence: audit record of a rejected stale commit (zombie worker).
	OpFence Op = "fence"
)

// LeaseRecord is one appended log line.
type LeaseRecord struct {
	Op          Op          `json:"op"`
	Cell        int         `json:"cell"`
	Fingerprint string      `json:"fp,omitempty"`
	Worker      string      `json:"worker,omitempty"`
	Token       uint64      `json:"token"`
	Attempt     int         `json:"attempt,omitempty"`
	Reason      string      `json:"reason,omitempty"`
	Result      *sim.Result `json:"result,omitempty"`
}

// ledgerFile is the append-only log inside a ledger directory.
const ledgerFile = "ledger.ndjson"

// epochPrefix names the epoch marker files: epoch.00000001, … The
// numbering is dense — each new writer creates exactly max+1 — so a
// writer checks for its successor with a single stat.
const epochPrefix = "epoch."

func epochName(n uint64) string {
	return fmt.Sprintf("%s%08d", epochPrefix, n)
}

// Ledger is the record log in a directory, plus the epoch fence. It is
// safe for concurrent use.
type Ledger struct {
	recordLog
	dir   string
	epoch uint64
}

func (l *Ledger) records() *recordLog {
	if l == nil {
		return nil
	}
	return &l.recordLog
}

// OpenLedger opens (creating if needed) the ledger directory, acquires
// the next writer epoch, and replays the log. The returned ledger
// holds the epoch until a later OpenLedger on the same directory
// supersedes it, at which point every Append fails with ErrFenced.
func OpenLedger(dir string) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	max, err := maxEpoch(dir)
	if err != nil {
		return nil, err
	}
	// Acquire the next epoch: O_EXCL creation is atomic, so exactly one
	// contender wins each number; losers step forward and retry.
	epoch := max
	for {
		epoch++
		f, err := os.OpenFile(filepath.Join(dir, epochName(epoch)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("resume: acquiring ledger epoch: %w", err)
		}
		f.Close()
		break
	}
	f, err := os.OpenFile(filepath.Join(dir, ledgerFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	// Make the epoch acquisition and the log file durable before any
	// record references them.
	if err := fsyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	l := &Ledger{dir: dir, epoch: epoch}
	if err := l.load(f.Name()); err != nil {
		f.Close()
		return nil, err
	}
	l.f, l.fence = f, l.checkFence
	return l, nil
}

// maxEpoch scans the directory for the highest epoch marker.
func maxEpoch(dir string) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("resume: %w", err)
	}
	var max uint64
	for _, e := range ents {
		num, ok := strings.CutPrefix(e.Name(), epochPrefix)
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue
		}
		if n > max {
			max = n
		}
	}
	return max, nil
}

// Epoch returns this writer's fencing epoch.
func (l *Ledger) Epoch() uint64 { return l.epoch }

// checkFence fails with ErrFenced once a successor epoch exists. Dense
// epoch numbering makes it one stat: any successor must have created
// exactly epoch+1.
func (l *Ledger) checkFence() error {
	if _, err := os.Stat(filepath.Join(l.dir, epochName(l.epoch+1))); err == nil {
		return fmt.Errorf("%w (this writer holds epoch %d)", ErrFenced, l.epoch)
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("resume: checking ledger fence: %w", err)
	}
	return nil
}

// Close releases the log file handle. The epoch marker stays: epochs
// are never reused, and a closed ledger is indistinguishable from a
// crashed one — successors fence it either way.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	return nil
}

// RemoveLedger deletes a completed ledger directory — the analog of
// Journal.Remove once a grid finished with no holes. A missing
// directory is not an error.
func RemoveLedger(dir string) error {
	if err := os.RemoveAll(dir); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("resume: %w", err)
	}
	return nil
}
