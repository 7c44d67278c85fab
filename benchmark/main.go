// Command benchmark is the repository's one benchmark: four workloads
// driven through the public tencentrec.System from a single process,
// end-to-end metrics measured with tracing off, and a separate traced
// run for the per-layer numbers. See README.md.
//
//	bash benchmark/run.sh --workload ingest-sparse --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -smoke
//	bash benchmark/run.sh -selfcheck 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run; empty runs all four")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", runSeconds, "measured seconds of one run")
		trace     = flag.Int("trace", 0, "1 repeats the workload with harness spans and tuple traces and reports the per-layer metrics")
		smoke     = flag.Bool("smoke", false, "run every workload for about two seconds with the checks on")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of K runs per workload and hold their medians to the bounds")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "directory for system data and trace files")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *printMan {
		os.Stdout.Write(manifest())
		return
	}
	// The reference box has two cores; more than four would let the same
	// code measure differently on a larger one.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	fmt.Printf("# GOMAXPROCS=%d nproc=%d %s\n", procs, runtime.NumCPU(), runtime.Version())

	if *selfcheck > 0 {
		os.Exit(selfCheck(*selfcheck, *seconds, *outDir))
	}
	if *smoke {
		*seconds = 2
	}
	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		todo = []workload{w}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ok := true
	for _, w := range todo {
		rep, err := measure(runOpts{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *outDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, _ := json.Marshal(rep)
		fmt.Println(string(line))
		ok = ok && rep.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// measure runs one workload and prints every metric by name and unit.
// With tracing asked for it runs the workload twice, untraced then
// traced, so tracing's own cost is a reported number.
func measure(o runOpts) (report, error) {
	traced := o.traced
	o.traced = false
	res, err := runWorkload(o)
	if err != nil {
		return report{}, err
	}
	defs := endToEnd
	vals := res.e2e
	if traced {
		plain := res
		o.traced = true
		if res, err = runWorkload(o); err != nil {
			return report{}, err
		}
		h := o.w.headline
		res.layer["obsv.trace_overhead_share"] = worsening(plain.e2e[h], res.e2e[h])
		// Both passes count: a check that failed untraced is still a failure.
		res.attempted += plain.attempted
		res.failed += plain.failed
		res.problems = append(plain.problems, res.problems...)
		defs, vals = perLayer(), res.layer
	}
	rep := report{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]value, len(defs)),
	}
	fmt.Printf("# %s seed=%d seconds=%g traced=%v\n", o.w.name, o.seed, o.seconds, traced)
	for _, d := range defs {
		v, present := vals[d.Name]
		if !present {
			return report{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rep.Metrics[d.Name] = value{v, d.Unit}
		fmt.Printf("%-44s %16.4f %s\n", d.Name, v, d.Unit)
	}
	if traced {
		fmt.Printf("# busiest component: %s\n", busiest(res.layer))
	}
	for _, p := range res.problems {
		fmt.Printf("# FAILED CHECK: %s\n", p)
		// On standard error too: that is what a driver shows of a failed run.
		fmt.Fprintf(os.Stderr, "%s seed=%d traced=%v: failed check: %s\n", o.w.name, o.seed, traced, p)
	}
	fmt.Printf("# attempted=%d failed=%d failed_share=%.6f\n", rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	return rep, nil
}

// worsening is how much worse b is than a as a share of a. Every
// end-to-end metric is better when lower.
func worsening(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}
