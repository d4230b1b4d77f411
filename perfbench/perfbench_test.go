package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// TestTinyWorkloads runs every workload at test size through the same
// code paths as a full run, untraced and traced, and checks that the
// result line is correct and carries exactly the declared metrics.
func TestTinyWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", w, "--tiny", "--seconds", "0.3", "--trace", trace, "--tmp", t.TempDir()}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool                       `json:"correct"`
					Attempted int                        `json:"attempted"`
					Failed    int                        `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%t failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				var got []string
				for n := range res.Metrics {
					got = append(got, n)
				}
				sort.Strings(got)
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if !slices.Equal(got, want) {
					t.Errorf("metrics %v, BENCHMARK.json declares %v", got, want)
				}
			})
		}
	}
}

// TestBadOutputFails checks that a wrong recorded digest makes the run
// incorrect and the exit code 1.
func TestBadOutputFails(t *testing.T) {
	saved := pfTinyDigests["threshold"]
	pfTinyDigests["threshold"] = "0000000000000000"
	defer func() { pfTinyDigests["threshold"] = saved }()
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "pf-paper", "--tiny", "--seconds", "0", "--tmp", t.TempDir()}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("result line does not report correct=false:\n%s", out.String())
	}
}

// TestSelfTime checks that a span's self time excludes the time of
// the spans nested in it, at any depth.
func TestSelfTime(t *testing.T) {
	var now int64
	ln := newLane(func() int64 { return now })
	ln.enter(lSim) // t=0
	now = 10
	ln.enter(lMM) // t=10
	now = 15
	ln.enter(lCheck) // t=15
	now = 18
	if d, s := ln.exit(); d != 3 || s != 3 { // check: 15..18
		t.Fatalf("inner span: dur %d self %d, want 3 3", d, s)
	}
	now = 30
	if d, s := ln.exit(); d != 20 || s != 17 { // mm: 10..30 minus 3
		t.Fatalf("middle span: dur %d self %d, want 20 17", d, s)
	}
	now = 40
	ln.enter(lProgram) // t=40
	now = 45
	ln.exit() // program: 40..45
	now = 50
	if d, s := ln.exit(); d != 50 || s != 25 { // sim: 0..50 minus 20 and 5
		t.Fatalf("outer span: dur %d self %d, want 50 25", d, s)
	}
	want := [nLayers]int64{lSim: 25, lMM: 17, lCheck: 3, lProgram: 5}
	if ln.self != want {
		t.Errorf("self times %v, want %v", ln.self, want)
	}
	var total int64
	for _, s := range ln.self {
		total += s
	}
	if total != 50 || ln.topDur != 50 {
		t.Errorf("self times sum to %d and top-level spans to %d, want both 50", total, ln.topDur)
	}
}

// TestCellWindow checks that a cell window counts from the manager's
// Reset to the end of the last span inside it.
func TestCellWindow(t *testing.T) {
	var now int64 = 100
	ln := newLane(func() int64 { return now })
	ln.openWindow() // t=100
	now = 110
	ln.enter(lMM)
	now = 115
	ln.exit()
	now = 200 // idle after the last span: not part of the window
	ln.openWindow()
	now = 205
	ln.enter(lProgram)
	now = 207
	ln.exit()
	ln.closeWindow()
	if !slices.Equal(ln.windows, []int64{15, 7}) {
		t.Fatalf("windows %v, want [15 7]", ln.windows)
	}
	if ln.windowSum != 22 || ln.windowTop != 7 {
		t.Errorf("window sum %d, top-level time inside %d; want 22 and 7", ln.windowSum, ln.windowTop)
	}
}

// TestPercentileNeedsTenBeyond checks the reporting rule: a percentile
// needs at least ten samples above it, otherwise the median stands in.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {19, 0.5, false}, {20, 0.5, true}, {1000, 0.99, true}, {999, 0.99, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %g) = %t, want %t", c.n, c.q, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, used := tail(xs, 0.9); used != 0.9 || v != quantile(xs, 0.9) {
		t.Errorf("100 samples: tail = %g at q=%g, want the 0.9-quantile", v, used)
	}
	if v, used := tail(xs[:99], 0.9); used != 0.5 || v != 49 {
		t.Errorf("99 samples: tail = %g at q=%g, want the median 49", v, used)
	}
}
