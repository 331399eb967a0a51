package main

import "balancesort"

// runner is one workload's measurement: run measures it in this process;
// setup is the body of a fresh set-up child process.
type runner interface {
	run(rc runConfig, r *result) error
	setup(spec setupSpec) error
}

type workload struct {
	name string
	runner
}

// workloads are sized for a 2-CPU host: one sort at a time, and at most 2
// cluster workers. BENCHMARK.json lists the same names and says why each
// one exists.
var workloads = []workload{
	{"sort-dist", fileSort{dist: balancesort.Uniform, n: 1 << 18, quickN: 1 << 14, engine: balancesort.EngineBalanceSort}},
	{"sort-auto", fileSort{dist: balancesort.Zipf, n: 1 << 20, quickN: 1 << 15, engine: balancesort.EngineAuto}},
	{"cluster-2w", clusterSort{n: 1 << 20, quickN: 1 << 14}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
