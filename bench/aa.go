package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// aaRun is one child run's outcome.
type aaRun struct {
	res   result
	noisy bool
}

// runOnce runs this binary on one workload in a process of its own, as the
// driver does, and parses the last line of its output.
func runOnce(workload string, seed int64, seconds float64) (aaRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return aaRun{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return aaRun{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var run aaRun
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if strings.HasPrefix(last, "noise_sentinel") && strings.HasSuffix(last, "noisy=true") {
			run.noisy = true
		}
	}
	if err := json.Unmarshal([]byte(last), &run.res); err != nil {
		return aaRun{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return run, nil
}

// runAA runs every workload k times in each of two sets of the same code,
// with seeds base..base+k-1 in both, alternating which set goes first, and
// prints each end-to-end metric's medians, quartiles and spread beside its
// bound. It reports false when the sets' medians disagree by more than the
// bound, or a run had failures — the acceptance check the driver applies.
func runAA(k int, base int64, seconds float64) (bool, error) {
	type key struct {
		set      int
		workload string
		metric   string
	}
	vals := map[key][]float64{}
	noisy := map[string]int{}
	ok := true
	for i := 0; i < k; i++ {
		for j := 0; j < 2; j++ {
			set := (i + j) % 2
			for _, w := range workloads {
				run, err := runOnce(w.name, base+int64(i), seconds)
				if err != nil {
					return false, err
				}
				if run.noisy {
					noisy[w.name]++
				}
				if !run.res.Correct || run.res.Failed != 0 {
					ok = false
					fmt.Printf("FAILED OPERATIONS: %s seed %d set %d: %d of %d\n", w.name, base+int64(i), set, run.res.Failed, run.res.Attempted)
				}
				for name, v := range run.res.Metrics {
					vals[key{set, w.name, name}] = append(vals[key{set, w.name, name}], v.Value)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "aa: round %d of %d done\n", i+1, k)
	}
	fmt.Printf("A/A: two sets of %d runs per workload, seeds %d..%d, -seconds %g\n", k, base, base+int64(k)-1, seconds)
	fmt.Printf("%-20s %-18s %12s %12s %12s %8s | %12s %8s | %8s %6s  %s\n",
		"workload", "metric", "A median", "A q1", "A q3", "A sprd%", "B median", "B sprd%", "B vs A%", "bound%", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := vals[key{0, w.name, d.Name}], vals[key{1, w.name, d.Name}]
			ma, mb := median(a), median(b)
			q1, q3 := quartiles(a)
			worse := 0.0 // how much worse B's median is than A's, as a share of A's
			if ma != 0 {
				worse = (mb - ma) / math.Abs(ma)
				if d.Better == "higher" {
					worse = -worse
				}
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case math.Abs(worse) > d.Bound:
				verdict = "DISAGREE"
				ok = false
			case d.Name != "setup_s" && math.Max(sa, sb) > d.Bound:
				verdict = "SPREAD>bound"
				ok = false
			case d.Name != "setup_s" && math.Max(sa, sb) > d.Bound/2:
				verdict = "spread>bound/2"
			case d.Name != "setup_s" && math.Max(sa, sb) > d.Bound/3:
				verdict = "spread>bound/3"
			}
			fmt.Printf("%-20s %-18s %12.4f %12.4f %12.4f %8.2f | %12.4f %8.2f | %+8.2f %6.1f  %s\n",
				w.name, d.Name, ma, q1, q3, 100*sa, mb, 100*sb, 100*worse, 100*d.Bound, verdict)
		}
		if n := noisy[w.name]; n > 0 {
			fmt.Printf("%-20s %d of %d runs were flagged noisy by the sentinel\n", w.name, n, 2*k)
		}
	}
	return ok, nil
}
