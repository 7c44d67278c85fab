package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// selfCheck is the benchmark judging itself the way a later change will
// be judged: two interleaved sets of k runs of the same code per
// workload, each run a fresh process with its own seed. For every
// end-to-end metric it prints both medians, the inter-quartile range as
// a share of the median for each set and for all 2k runs together, and
// how much worse set B's median is than set A's, against the metric's
// bound. It returns 1 if the ten-run spread (other than setup_s's) or the
// difference exceeds the bound, which is the driver's own rule; the
// five-run spreads are printed for information, a quartile of five
// values being half a guess.
func selfCheck(k int, seconds float64, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < k; i++ {
		for _, w := range workloads {
			for s := range sets {
				seed := int64(2*i + s + 1)
				rep, err := runChild(exe, w.name, seed, seconds, outDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", w.name, seed, err)
					return 2
				}
				for name, v := range rep.Metrics {
					sets[s][key{w.name, name}] = append(sets[s][key{w.name, name}], v.Value)
				}
			}
		}
	}
	fmt.Printf("\n| workload | metric | median A | median B | IQR/median A | IQR/median B | IQR/median A+B | B worse by | bound | |\n")
	fmt.Printf("|---|---|---:|---:|---:|---:|---:|---:|---:|---|\n")
	failed := false
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][key{w.name, d.Name}], sets[1][key{w.name, d.Name}]
			ma, mb := quartiles(a)[1], quartiles(b)[1]
			sa, sb, sab := spread(a), spread(b), spread(append(append([]float64(nil), a...), b...))
			worse := worsening(ma, mb)
			verdict := "ok"
			if worse > d.Bound || (d.Name != "setup_s" && sab > d.Bound) {
				verdict, failed = "EXCEEDS", true
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.3f | %.3f | %.3f | %+.3f | %.2f | %s |\n",
				w.name, d.Name, ma, mb, sa, sb, sab, worse, d.Bound, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runChild runs one untraced run in a fresh process, so peak RSS and GC
// state start clean, and parses the report from its last line.
func runChild(exe, workload string, seed int64, seconds float64, outDir string) (report, error) {
	cmd := exec.Command(exe,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0", "--out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("%w\n%s", err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return report{}, fmt.Errorf("last line is not a report: %w", err)
	}
	fmt.Printf("%s seed=%d %s\n", workload, seed, lines[len(lines)-1])
	return rep, nil
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var out [3]float64
	if n == 0 {
		return out
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	for q := 1; q <= 3; q++ {
		j := min(max(q*(n+1)/4, 1), n-1)
		delta := q*(n+1) - j*4
		out[q-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// spread is the inter-quartile range as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}
