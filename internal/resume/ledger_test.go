package resume

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"compaction/internal/faultinject"
	"compaction/internal/sim"
)

func lease(op Op, cell int, token uint64) LeaseRecord {
	rec := LeaseRecord{
		Op: op, Cell: cell, Fingerprint: Fingerprint(key(cell)),
		Worker: "w1", Token: token,
	}
	if op == OpCommit {
		rec.Result = &sim.Result{Program: "pf", Manager: "first-fit", Rounds: 10, HighWater: int64(100 * cell)}
	}
	return rec
}

func boundLedger(t *testing.T, dir string) *Ledger {
	t.Helper()
	l, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	grid := GridFingerprint([]string{Fingerprint(key(0)), Fingerprint(key(1))})
	if err := l.Bind(grid, 2, "adv=pf seed=1 rounds=10 ell=0"); err != nil {
		t.Fatal(err)
	}
	return l
}

// replayDir replays the log in a ledger directory, independently of
// any open Ledger's in-memory state.
func replayDir(t *testing.T, dir string) *recordLog {
	t.Helper()
	var l recordLog
	if err := l.load(filepath.Join(dir, ledgerFile)); err != nil {
		t.Fatal(err)
	}
	if !l.bound {
		t.Fatalf("%s: ledger not bound", dir)
	}
	return &l
}

func TestLedgerRoundtripAndReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	for _, rec := range []LeaseRecord{
		lease(OpClaim, 0, 1),
		lease(OpCommit, 0, 1),
		lease(OpClaim, 1, 2),
		lease(OpFail, 1, 2),
		lease(OpQuarantine, 1, 2),
	} {
		if rec.Op == OpQuarantine || rec.Op == OpFail {
			rec.Reason = "boom"
		}
		if err := l.Append(rec); err != nil {
			t.Fatalf("append %s: %v", rec.Op, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rl := replayDir(t, dir)
	if rl.hdr.Cells != 2 {
		t.Fatalf("replay: cells=%d", rl.hdr.Cells)
	}
	st := rl.st
	rec, ok := st.commits[0]
	if !ok || rec.Result == nil || rec.Result.HighWater != 0 || rec.Result.Rounds != 10 {
		t.Fatalf("replay commit for cell 0: %+v", rec)
	}
	if _, ok := st.commits[1]; ok {
		t.Fatal("replay committed cell 1, which only failed and was quarantined")
	}
	// Quarantines stay in the log as an audit trail; replay does not
	// adopt them.
	raw, err := os.ReadFile(filepath.Join(dir, ledgerFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"op":"quarantine","cell":1`) || !strings.Contains(string(raw), `"reason":"boom"`) {
		t.Fatalf("quarantine record missing from the log:\n%s", raw)
	}
	if st.maxToken != 2 {
		t.Fatalf("max token = %d, want 2", st.maxToken)
	}
}

func TestLedgerFirstCommitWins(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	first := lease(OpCommit, 0, 1)
	first.Result.HighWater = 111
	second := lease(OpCommit, 0, 7)
	second.Result.HighWater = 999
	if err := l.Append(first); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(second); err != nil {
		t.Fatal(err)
	}
	l.Close()
	st := replayDir(t, dir).st
	if st.commits[0].Result.HighWater != 111 {
		t.Fatalf("replay kept the later commit: %+v", st.commits[0])
	}
	if st.maxToken != 7 {
		t.Fatalf("max token = %d, want 7", st.maxToken)
	}
}

// TestLedgerFencesStaleWriter is the two-writer half of the fencing
// story: epochs live in the filesystem, so a second OpenLedger on the
// same directory — same process or not — supersedes the first, whose
// next append must fail with ErrFenced instead of interleaving.
func TestLedgerFencesStaleWriter(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l1 := boundLedger(t, dir)
	if err := l1.Append(lease(OpClaim, 0, 1)); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Epoch() != l1.Epoch()+1 {
		t.Fatalf("epochs not dense: %d then %d", l1.Epoch(), l2.Epoch())
	}

	err = l1.Append(lease(OpCommit, 0, 1))
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale writer append: err=%v, want ErrFenced", err)
	}

	// The successor adopts the predecessor's binding and writes freely.
	grid := GridFingerprint([]string{Fingerprint(key(0)), Fingerprint(key(1))})
	if err := l2.Bind(grid, 2, "adv=pf seed=1 rounds=10 ell=0"); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(lease(OpCommit, 0, 2)); err != nil {
		t.Fatalf("successor append: %v", err)
	}
	st := replayDir(t, dir).st
	if len(st.commits) != 1 || st.commits[0].Token != 2 {
		t.Fatalf("replay after takeover: %+v", st.commits)
	}
}

func TestLedgerBindMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	l.Close()
	l2, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	err = l2.Bind(GridFingerprint([]string{Fingerprint(key(5))}), 1, "adv=other")
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("bind with different grid: err=%v, want ErrMismatch", err)
	}
}

func TestLedgerAppendBeforeBind(t *testing.T) {
	l, err := OpenLedger(filepath.Join(t.TempDir(), "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(lease(OpClaim, 0, 1)); err == nil {
		t.Fatal("append before bind succeeded")
	}
}

func TestLedgerCloseIdempotent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := l.Append(lease(OpClaim, 0, 1)); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestLedgerTornTailEveryOffset kills the writer at every possible
// byte of the log (faultinject.TearFile simulates the torn trailing
// record) and requires every prefix to boot clean and to take new
// records: reopen, Bind, append a commit, close, and the replay holds
// exactly the commits whose full line survived plus the new one.
func TestLedgerTornTailEveryOffset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	records := []LeaseRecord{
		lease(OpClaim, 0, 1),
		lease(OpCommit, 0, 1),
		lease(OpClaim, 1, 2),
		lease(OpCommit, 1, 2),
	}
	ops := make([]Op, len(records))
	for i, rec := range records {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		ops[i] = rec.Op
	}
	l.Close()
	whole, err := os.ReadFile(filepath.Join(dir, ledgerFile))
	if err != nil {
		t.Fatal(err)
	}
	if st := replayDir(t, dir).st; len(st.commits) != 2 {
		t.Fatalf("full replay found %d commits, want 2", len(st.commits))
	}
	grid := GridFingerprint([]string{Fingerprint(key(0)), Fingerprint(key(1))})

	for keep := 0; keep <= len(whole); keep++ {
		torn := filepath.Join(t.TempDir(), fmt.Sprintf("torn-%d", keep))
		if err := os.MkdirAll(torn, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(torn, ledgerFile)
		if err := os.WriteFile(path, whole, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.TearFile(path, int64(keep)); err != nil {
			t.Fatal(err)
		}
		want := commitsWithin(whole, ops, keep)
		var rl recordLog
		if err := rl.load(path); err != nil {
			t.Fatalf("keep=%d: replay failed: %v", keep, err)
		}
		if len(rl.st.commits) != want {
			t.Fatalf("keep=%d: %d commits recovered, want %d", keep, len(rl.st.commits), want)
		}
		// The successor coordinator binds and appends after the
		// recovered prefix; its acknowledged commit must replay.
		l2, err := OpenLedger(torn)
		if err != nil {
			t.Fatalf("keep=%d: reopen: %v", keep, err)
		}
		if err := l2.Bind(grid, 2, "adv=pf seed=1 rounds=10 ell=0"); err != nil {
			t.Fatalf("keep=%d: bind: %v", keep, err)
		}
		if err := l2.Append(lease(OpCommit, 2, 9)); err != nil {
			t.Fatalf("keep=%d: append: %v", keep, err)
		}
		l2.Close()
		st := replayDir(t, torn).st
		if _, ok := st.commits[2]; !ok || len(st.commits) != want+1 {
			t.Fatalf("keep=%d: after append, replay holds %d commits (new one present: %v), want %d",
				keep, len(st.commits), ok, want+1)
		}
	}
}

// TestLedgerConcurrentAppend hammers one ledger from many goroutines;
// with -race this is the data-race check for the append path.
func TestLedgerConcurrentAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	defer l.Close()
	var wg sync.WaitGroup
	const writers, each = 8, 20
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := lease(OpClaim, 0, uint64(w*each+i+1))
				rec.Worker = fmt.Sprintf("w%d", w)
				if err := l.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := replayDir(t, dir).st; st.maxToken != writers*each {
		t.Fatalf("max token = %d, want %d", st.maxToken, writers*each)
	}
}

// TestJournalSaveSyncsDirectory pins the crash-durability contract of
// journal creation: the Bind that creates the file also syncs the
// parent directory, so the new file name survives a power cut. The
// seam also propagates failures.
func TestJournalSaveSyncsDirectory(t *testing.T) {
	orig := fsyncDir
	defer func() { fsyncDir = orig }()
	var synced []string
	fsyncDir = func(dir string) error {
		synced = append(synced, dir)
		return orig(dir)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	grid := GridFingerprint([]string{Fingerprint(key(0))})
	if err := j.Bind(grid, 1, "adv=pf"); err != nil {
		t.Fatal(err)
	}
	if want := filepath.Dir(path); len(synced) != 1 || synced[0] != want {
		t.Fatalf("creating the journal synced %v, want [%s]", synced, want)
	}
	// Appends to an existing file need no directory sync.
	if _, err := j.Record(entry(0)); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 {
		t.Fatalf("Record synced the directory again: %v", synced)
	}

	// An injected directory-sync failure must fail the creation loudly
	// — a journal that may vanish on power loss is not a journal.
	fsyncDir = func(dir string) error {
		return faultinject.ErrInjected
	}
	path2 := filepath.Join(t.TempDir(), "sweep.ckpt")
	j2, err := Open(path2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Bind(grid, 1, "adv=pf"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Bind with failing dir sync: err=%v, want ErrInjected", err)
	}
	// A retried Bind rewrites the header rather than adding a second.
	fsyncDir = orig
	if err := j2.Bind(grid, 1, "adv=pf"); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path2); bytes.Count(b, []byte("\n")) != 1 {
		t.Fatalf("journal after a retried Bind: %q", b)
	}
}
