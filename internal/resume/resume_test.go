package resume

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"compaction/internal/sim"
)

func key(i int) CellKey {
	return CellKey{
		Index: i, Label: "pf", Manager: "first-fit",
		Config: sim.Config{M: 1 << 14, N: 1 << 6, C: 16, Pow2Only: true},
	}
}

func entry(i int) Entry {
	return Entry{
		Fingerprint: Fingerprint(key(i)),
		Index:       i, Label: "pf", Manager: "first-fit",
		Result: sim.Result{Program: "pf", Manager: "first-fit", Rounds: 10 + i, HighWater: int64(100 * i)},
	}
}

func TestFingerprintDiscriminates(t *testing.T) {
	base := Fingerprint(key(0))
	variants := []CellKey{key(1)}
	k := key(0)
	k.Label = "other"
	variants = append(variants, k)
	k = key(0)
	k.Manager = "best-fit"
	variants = append(variants, k)
	k = key(0)
	k.Config.C = 32
	variants = append(variants, k)
	k = key(0)
	k.Config.Pow2Only = false
	variants = append(variants, k)
	for i, v := range variants {
		if Fingerprint(v) == base {
			t.Errorf("variant %d collides with base fingerprint", i)
		}
	}
	if Fingerprint(key(0)) != base {
		t.Error("fingerprint not deterministic")
	}
}

func TestJournalRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	grid := GridFingerprint([]string{Fingerprint(key(0)), Fingerprint(key(1))})
	if err := j.Bind(grid, 2, "adv=pf seed=1"); err != nil {
		t.Fatal(err)
	}
	if n, err := j.Record(entry(0)); err != nil || n != 1 {
		t.Fatalf("record: n=%d err=%v", n, err)
	}
	if n, err := j.Record(entry(1)); err != nil || n != 2 {
		t.Fatalf("record: n=%d err=%v", n, err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2", j2.Len())
	}
	r, err := Restore(j2, []CellKey{key(0), key(1)}, "adv=pf seed=1")
	if err != nil {
		t.Fatal(err)
	}
	res, ok := r.Results[1]
	if !ok {
		t.Fatal("entry 1 missing after reload")
	}
	if res.HighWater != 100 || res.Rounds != 11 {
		t.Fatalf("entry drifted through the journal: %+v", res)
	}
}

func TestJournalRefusesMismatchedGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, _ := Open(path)
	grid := GridFingerprint([]string{Fingerprint(key(0))})
	if err := j.Bind(grid, 1, "adv=pf"); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Record(entry(0)); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Bind("deadbeefdeadbeef", 1, "adv=pf"); !errors.Is(err, ErrMismatch) {
		t.Fatalf("mismatched grid accepted: %v", err)
	}
	if err := j2.Bind(grid, 1, "adv=robson"); !errors.Is(err, ErrMismatch) {
		t.Fatalf("mismatched params accepted: %v", err)
	}
	if err := j2.Bind(grid, 1, "adv=pf"); err != nil {
		t.Fatalf("matching rebind refused: %v", err)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, _ := Open(path)
	grid := GridFingerprint([]string{Fingerprint(key(0)), Fingerprint(key(1))})
	if err := j.Bind(grid, 2, ""); err != nil {
		t.Fatal(err)
	}
	j.Record(entry(0))
	j.Record(entry(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last line mid-record, as a crash during a copy would.
	if err := os.WriteFile(path, data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatalf("torn journal refused entirely: %v", err)
	}
	if j2.Len() != 1 {
		t.Fatalf("recovered %d entries from torn journal, want 1", j2.Len())
	}
	r, err := Restore(j2, []CellKey{key(0), key(1)}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Results[0]; !ok {
		t.Fatal("intact prefix entry lost")
	}
}

func TestJournalRefusesForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("these are not checkpoints\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("foreign file accepted as a journal")
	}
}

func TestJournalMissingAndEmptyAreFresh(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(filepath.Join(dir, "absent.ckpt"))
	if err != nil || j.Len() != 0 {
		t.Fatalf("missing journal: len=%d err=%v", j.Len(), err)
	}
	empty := filepath.Join(dir, "empty.ckpt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err = Open(empty)
	if err != nil || j.Len() != 0 {
		t.Fatalf("empty journal: len=%d err=%v", j.Len(), err)
	}
	if err := j.Bind("abc", 1, ""); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, _ := Open(path)
	j.Bind("abc", 1, "")
	if _, err := j.Record(entry(0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("journal file still present after Remove")
	}
	if err := j.Remove(); err != nil {
		t.Fatalf("second Remove not idempotent: %v", err)
	}
}

func TestRecordBeforeBindFails(t *testing.T) {
	j, _ := Open(filepath.Join(t.TempDir(), "x.ckpt"))
	if _, err := j.Record(entry(0)); err == nil {
		t.Fatal("Record before Bind accepted")
	}
}

// commitsWithin counts the commit records whose line content fits in
// the first keep bytes of a log: replay still parses a final line whose
// newline was torn off. Line 0 is the header; ops[i] is line i+1's op.
func commitsWithin(whole []byte, ops []Op, keep int) int {
	n, line := 0, 0
	for i, b := range whole {
		if b != '\n' {
			continue
		}
		if keep < i {
			break
		}
		if line >= 1 && ops[line-1] == OpCommit {
			n++
		}
		line++
	}
	return n
}

// TestJournalTornTailEveryOffset tears a journal at every byte and
// requires each prefix to take a new record: Open, Bind, Record, then
// a reopened journal holds the prefix's cells plus the new one. A
// writer that appended onto the torn bytes would lose the new record
// on the following replay.
func TestJournalTornTailEveryOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, _ := Open(path)
	grid := GridFingerprint([]string{Fingerprint(key(0)), Fingerprint(key(1)), Fingerprint(key(2))})
	if err := j.Bind(grid, 3, "adv=pf"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := j.Record(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for keep := 0; keep <= len(whole); keep++ {
		torn := filepath.Join(t.TempDir(), "torn.ckpt")
		if err := os.WriteFile(torn, whole[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(torn)
		if err != nil {
			t.Fatalf("keep=%d: open: %v", keep, err)
		}
		if err := j.Bind(grid, 3, "adv=pf"); err != nil {
			t.Fatalf("keep=%d: bind: %v", keep, err)
		}
		if _, err := j.Record(entry(2)); err != nil {
			t.Fatalf("keep=%d: record: %v", keep, err)
		}
		j2, err := Open(torn)
		if err != nil {
			t.Fatalf("keep=%d: reopen: %v", keep, err)
		}
		if want := commitsWithin(whole, []Op{OpCommit, OpCommit}, keep) + 1; j2.Len() != want {
			t.Fatalf("keep=%d: %d cells after reopen, want %d", keep, j2.Len(), want)
		}
	}
}

// TestOneHeaderPolicy: a file with no complete line is a torn first
// write and is reset; a first line that is not a current-version
// header (a foreign file, a v1 snapshot journal) is refused by both
// the journal and the ledger and never written; a mismatched Bind
// leaves the file untouched.
func TestOneHeaderPolicy(t *testing.T) {
	dir := t.TempDir()
	torn := filepath.Join(dir, "torn.ckpt")
	if err := os.WriteFile(torn, []byte(`{"v":2,"grid":"ab`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(torn)
	if err != nil {
		t.Fatalf("torn first write refused: %v", err)
	}
	if err := j.Bind("abc", 1, ""); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(torn); string(b) != `{"v":2,"grid":"abc","cells":1}`+"\n" {
		t.Fatalf("torn first write not reset: %q", b)
	}

	v1 := []byte(`{"v":1,"grid":"abc","cells":1}` + "\n" + `{"cell":"x","index":0}` + "\n")
	for name, content := range map[string][]byte{"v1": v1, "foreign": []byte("not a log\n")} {
		path := filepath.Join(dir, name+".ckpt")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Errorf("%s journal accepted", name)
		}
		led := filepath.Join(dir, name+".ledger")
		if err := os.MkdirAll(led, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(led, ledgerFile), content, 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := OpenLedger(led); err == nil {
			l.Close()
			t.Errorf("%s ledger accepted", name)
		}
		for _, p := range []string{path, filepath.Join(led, ledgerFile)} {
			if b, _ := os.ReadFile(p); !bytes.Equal(b, content) {
				t.Errorf("%s: refused file was written: %q", p, b)
			}
		}
	}

	// A mismatched Bind never repairs: the torn tail stays as it was.
	path := filepath.Join(dir, "bound.ckpt")
	content := []byte(`{"v":2,"grid":"abc","cells":1}` + "\n" + `{"op":"comm`)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bind("other", 1, ""); !errors.Is(err, ErrMismatch) {
		t.Fatalf("mismatched bind: %v", err)
	}
	if b, _ := os.ReadFile(path); !bytes.Equal(b, content) {
		t.Fatalf("mismatched bind touched the file: %q", b)
	}
}
