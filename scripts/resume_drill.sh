#!/usr/bin/env bash
# Resume drill: run a paper-scale sweep, SIGTERM it mid-grid, tear the
# journal's last record, resume and SIGTERM again, resume to completion,
# and verify the resumed CSV is byte-identical to an uninterrupted run. CI runs this as the recovery acceptance test;
# run it locally after touching the sweep scheduler, the resume
# journal, or compactsim's signal handling.
#
# Usage: scripts/resume_drill.sh [workdir]
set -euo pipefail

WORKDIR="${1:-$(mktemp -d)}"
BIN="$WORKDIR/compactsim"
SWEEP_FLAGS=(-adversary random -manager all -M 32Ki -n 128
             -sweep 4,16,64 -seed 7 -rounds 250)

echo "resume drill: workdir $WORKDIR"
go build -o "$BIN" ./cmd/compactsim

# Ground truth: the uninterrupted run.
"$BIN" "${SWEEP_FLAGS[@]}" -csv "$WORKDIR/clean.csv" >/dev/null

# journal_commits counts the journal's commit records, one per
# completed cell. The journal also holds the scheduler's claim and
# failure records, so counting lines would count claims too.
journal_commits() {
    if [ -f "$WORKDIR/sweep.ckpt" ]; then grep -c '"op":"commit"' "$WORKDIR/sweep.ckpt" || true; else echo 0; fi
}

# interrupt_once runs the checkpointed sweep, SIGTERMs it once the
# journal holds at least $1 commit records (the first run waits for
# three, so at least two survive the tear below and restore), and
# requires exit status 3 (interrupted), not 0 or 1. The header and
# claim records alone make the append-only journal non-empty, so the
# wait counts commits, not bytes: pulling the plug after a commit is
# what exercises restoration.
interrupt_once() {
    local want=$1 name=$2
    "$BIN" "${SWEEP_FLAGS[@]}" -checkpoint "$WORKDIR/sweep.ckpt" \
        -csv "$WORKDIR/$name.csv" >/dev/null 2>"$WORKDIR/$name.err" &
    local pid=$!
    for _ in $(seq 1 400); do
        if [ "$(journal_commits)" -ge "$want" ]; then
            break
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "resume drill: FAIL — $name sweep finished before it could be interrupted; grow the grid" >&2
            exit 1
        fi
        sleep 0.05
    done
    kill -TERM "$pid" 2>/dev/null || true
    set +e
    wait "$pid"
    local status=$?
    set -e
    if [ "$status" -ne 3 ]; then
        echo "resume drill: FAIL — $name sweep exited $status, want 3" >&2
        cat "$WORKDIR/$name.err" >&2
        exit 1
    fi
    if [ "$(journal_commits)" -lt 1 ]; then
        echo "resume drill: FAIL — no checkpointed cell survived the signal" >&2
        exit 1
    fi
    echo "resume drill: $name run exited 3 with $(journal_commits) journaled cells"
}

interrupt_once 3 interrupted

# Tear the journal's last record, as a crash mid-append would, then
# resume and interrupt once more: the resumed writer must repair the
# torn tail before it appends, or the records it appends are lost.
truncate -s -5 "$WORKDIR/sweep.ckpt"
TORN=$(journal_commits)
echo "resume drill: tore 5 bytes off the journal ($TORN commit records left)"
interrupt_once $((TORN + 1)) torn
if ! grep -q resuming "$WORKDIR/torn.err"; then
    echo "resume drill: FAIL — run after the tear did not restore from the journal" >&2
    cat "$WORKDIR/torn.err" >&2
    exit 1
fi

# Resume: same flags, same checkpoint. Must restore every record the
# journal holds (those appended after the tear included), complete,
# remove the journal, and reproduce the uninterrupted CSV byte for byte.
RECORDS=$(journal_commits)
"$BIN" "${SWEEP_FLAGS[@]}" -checkpoint "$WORKDIR/sweep.ckpt" \
    -csv "$WORKDIR/resumed.csv" >/dev/null 2>"$WORKDIR/resumed.err"
if ! grep -q "resuming $RECORDS/" "$WORKDIR/resumed.err"; then
    echo "resume drill: FAIL — resumed run did not restore all $RECORDS journaled cells" >&2
    cat "$WORKDIR/resumed.err" >&2
    exit 1
fi
if [ -e "$WORKDIR/sweep.ckpt" ]; then
    echo "resume drill: FAIL — journal not removed after a complete sweep" >&2
    exit 1
fi
if ! cmp -s "$WORKDIR/clean.csv" "$WORKDIR/resumed.csv"; then
    echo "resume drill: FAIL — resumed CSV differs from the uninterrupted run:" >&2
    diff "$WORKDIR/clean.csv" "$WORKDIR/resumed.csv" >&2 || true
    exit 1
fi
echo "resume drill: PASS — resumed CSV byte-identical to the uninterrupted run"
