package main

import (
	"strings"
	"testing"
)

func TestCompareMetricRules(t *testing.T) {
	base := Baseline{Benchmarks: map[string]Bench{
		"BenchmarkSim1PF/first-fit": {NsPerOp: 100, Metrics: map[string]float64{"HS/M": 2.5, "B/word": 100}},
	}}
	cases := []struct {
		hs, bpw float64
		fail    string // substring of the one expected failure, "" for none
	}{
		{2.5, 100, ""},
		{2.5, 40, ""},  // a smaller footprint always passes
		{2.5, 114, ""}, // within 1.15×
		{2.5, 116, "B/word exceeds"},
		{2.56, 100, "HS/M"}, // other metrics keep the symmetric 2% rule
		{2.44, 100, "HS/M"},
	}
	for _, c := range cases {
		got := map[string]Bench{"BenchmarkSim1PF/first-fit": {
			NsPerOp: 100, Metrics: map[string]float64{"HS/M": c.hs, "B/word": c.bpw},
		}}
		fails := compare(base, got)
		switch {
		case c.fail == "" && len(fails) != 0:
			t.Errorf("HS/M=%g B/word=%g: unexpected failures %q", c.hs, c.bpw, fails)
		case c.fail != "" && (len(fails) != 1 || !strings.Contains(fails[0], c.fail)):
			t.Errorf("HS/M=%g B/word=%g: failures %q, want one mentioning %q", c.hs, c.bpw, fails, c.fail)
		}
	}
}

func TestParseReadsBytesPerWord(t *testing.T) {
	in := "cpu: test\nBenchmarkSim1PF/first-fit-2  1  51667045 ns/op  110.3 B/word  2.497 HS/M  7622888 B/op  32838 allocs/op\n"
	_, benches, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	b := benches["BenchmarkSim1PF/first-fit"]
	if b.Metrics["B/word"] != 110.3 || b.BytesPerOp != 7622888 {
		t.Fatalf("parsed %+v", b)
	}
}
