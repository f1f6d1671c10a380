// Command perfbench measures the simulator's own cost: host time per
// simulated IO in steady state, set-up time and heap, and how the cost
// splits across the repro/internal layers. See README.md.
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	perfbench --describe
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the exit code is
// nonzero when an IO fails or virtual-time results diverge.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "seed of the fio streams and the medium's jitter")
		seconds  = flag.Float64("seconds", runSeconds, "measuring time in seconds (1..60)")
		traced   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		describe = flag.Bool("describe", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *describe); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int, desc bool) error {
	if desc {
		b, err := describe()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 || seconds > 60 {
		return fmt.Errorf("--seconds %g outside 1..60", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", traced)
	}
	// The kernel runs one simulated process at a time, so a second P
	// only adds cross-thread handoffs: futex wake-ups and spinning
	// threads whose latency on a VM follows the host's load. Paired
	// ten-seed sweeps measured lower and steadier host time with one.
	runtime.GOMAXPROCS(1)
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", w.name, seed, seconds, traced)
	fmt.Printf("cpus_online %d GOMAXPROCS %d go %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := bench(w, w.size, seed, seconds, traced == 1, os.Stdout)
	if err != nil {
		return err
	}
	line, err := resultJSON(res, traced == 1)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.correct {
		return fmt.Errorf("workload %s: outputs incorrect", w.name)
	}
	return nil
}

// resultJSON renders the result line: every end-to-end metric, or with
// traced every per-layer one.
func resultJSON(res result, traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayerDefs()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s missing or not finite (%v)", d.Name, v)
		}
		ms[d.Name] = value{v, d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms})
}
