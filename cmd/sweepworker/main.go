// Command sweepworker is the distributed-sweep worker: it runs the
// sweep package's one worker loop against a compactsim coordinator —
// pulls cell leases, runs each cell on one reused engine, and commits
// the results back under the lease's fencing token.
//
//	compactsim -adversary pf -sweep 8,16,32 -coordinate 127.0.0.1:7171 ... &
//	sweepworker -coordinator http://127.0.0.1:7171
//	sweepworker -coordinator -          # NDJSON over stdin/stdout
//
// The first SIGTERM/SIGINT drains the worker, at once even mid claim
// back-off: it finishes and commits the in-flight cell, says goodbye,
// and exits 0. A second signal
// abandons the cell (its lease is released, so the cell is claimable
// immediately) and exits 3. Exit codes match compactsim: 0 success,
// 1 error, 2 usage, 3 interrupted.
//
// -inject plants a process-level fault for chaos drills (see
// internal/faultinject): kill-at-cell=N, kill-at-commit=N,
// hang-at-cell=N, dup-commit=N.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"compaction/internal/dist"
	"compaction/internal/faultinject"

	_ "compaction/internal/mm/all"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "", "coordinator address: an http://host:port base URL, or - for NDJSON over stdin/stdout")
		id          = flag.String("id", "", "worker name used in leases and the ledger (default worker-<pid>)")
		cellTimeout = flag.Duration("cell-timeout", 0, "wall-clock deadline per cell attempt (0 = none)")
		inject      = flag.String("inject", "", "fault to inject, for drills: kill-at-cell=N, kill-at-commit=N, hang-at-cell=N or dup-commit=N")
		quiet       = flag.Bool("quiet", false, "suppress per-lease progress lines on stderr")
	)
	flag.Parse()
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sweepworker: "+format+"\n", args...)
	}
	if *quiet {
		logf = func(string, ...any) {}
	}
	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "sweepworker: a coordinator address is required (-coordinator URL, or - for stdio)")
		os.Exit(2)
	}
	if *id == "" {
		*id = fmt.Sprintf("worker-%d", os.Getpid())
	}
	hooks, err := faultinject.ParseWorkerFault(*inject)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepworker:", err)
		os.Exit(2)
	}
	var conn dist.Conn = &dist.HTTPConn{Base: *coordinator}
	if *coordinator == "-" {
		conn = dist.NewLineConn(os.Stdin, os.Stdout)
	}

	// Two-stage drain: the first signal stops claiming (claimCtx), the
	// second abandons the in-flight cell (runCtx).
	runCtx, hardStop := context.WithCancel(context.Background())
	defer hardStop()
	claimCtx, drain := context.WithCancel(runCtx)
	defer drain()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)
	go func() {
		select {
		case <-sigc:
			logf("worker %s: draining (finishing the in-flight cell; signal again to abandon it)", *id)
			drain()
		case <-runCtx.Done():
			return
		}
		select {
		case <-sigc:
			logf("worker %s: hard stop", *id)
			hardStop()
		case <-runCtx.Done():
		}
	}()

	w := dist.NewWorker(conn, dist.WorkerOptions{
		ID:          *id,
		CellTimeout: *cellTimeout,
		Hooks:       hooks,
		Logf:        logf,
	})
	err = w.Run(runCtx, claimCtx)
	switch {
	case err == nil:
		return
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintln(os.Stderr, "sweepworker: interrupted:", err)
		os.Exit(3)
	default:
		fmt.Fprintln(os.Stderr, "sweepworker:", err)
		os.Exit(1)
	}
}
