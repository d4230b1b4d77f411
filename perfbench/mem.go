package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// vmHWM returns the process's peak resident set size in bytes, as the
// kernel reports it (VmHWM), or 0 where /proc is unavailable.
func vmHWM() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) == 0 {
				return 0
			}
			kb, _ := strconv.ParseInt(f[0], 10, 64)
			return kb << 10
		}
	}
	return 0
}

// freshPeak returns freed memory to the OS and restarts the kernel's
// peak-RSS counter at the current RSS, so VmHWM afterwards covers only
// what follows. Where the kernel refuses the reset, VmHWM keeps the
// peak since process start, which can only over-report.
func freshPeak() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rtSample is a snapshot of the Go runtime's cumulative counters.
type rtSample struct {
	allocBytes float64
	gcCycles   float64
	gcPauseS   float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out.gcPauseS = histSum(s[2].Value.Float64Histogram())
	}
	return out
}

// histSum estimates a histogram's total by bucket midpoints (the upper
// edge for an unbounded first bucket, the lower for an unbounded last).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		var mid float64
		switch {
		case lo < -1e300:
			mid = hi
		case hi > 1e300:
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		sum += float64(c) * mid
	}
	return sum
}

// heapPeak samples the runtime's heap-object bytes every few
// milliseconds until stopped, and keeps the maximum.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  float64
}

func startHeapPeak() *heapPeak {
	p := &heapPeak{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				if v := float64(s[0].Value.Uint64()); v > p.max {
					p.max = v
				}
			}
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// done stops the sampler and returns the peak in bytes.
func (p *heapPeak) done() float64 {
	close(p.stop)
	p.wg.Wait()
	return p.max
}

// cpuModel names the host CPU from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
