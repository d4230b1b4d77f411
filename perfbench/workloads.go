package main

import "fmt"

// workloadNames are the benchmark's workloads, in BENCHMARK.json order.
var workloadNames = []string{"pf-paper", "sweep-churn", "service-jobs", "dist-grid"}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "pf-paper":
		return newPFPaper(o.tiny), nil
	case "sweep-churn":
		return newSweepChurn(o.seed, o.tmp, o.tiny), nil
	case "service-jobs":
		return newServiceJobs(o.tmp, o.tiny), nil
	case "dist-grid":
		return newDistGrid(o.tmp, o.tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
}
