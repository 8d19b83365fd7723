package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the comparisons need.
type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

// child runs this binary once, as the driver would, and parses the
// result line.
func child(workload string, seed int64, seconds float64) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return res, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

// compareRuns measures the benchmark's own noise against its bounds.
//
// aa: two interleaved sets of runs of the same binary on the same seed;
// the medians of the two sets may differ by at most half the bound.
//
// spread: one run on each of several seeds, as the driver does; the
// distance between the quartiles may be at most a third of the bound.
func compareRuns(cfg runConfig, aa bool, runs int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	exceeded := 0
	for _, w := range names {
		sets := [2]map[string][]float64{{}, {}}
		nsets := 1 // spread: one set over consecutive seeds
		if aa {
			nsets = 2 // two sets on one seed, interleaved
		}
		for i := 0; i < runs; i++ {
			for s := 0; s < nsets; s++ {
				seed := cfg.seed
				if !aa {
					seed += int64(i)
				}
				total, steal := jiffies()
				res, err := child(w, seed, cfg.seconds)
				if err != nil {
					return err
				}
				total1, steal1 := jiffies()
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "%s run %d/%d set %d seed %d done, hypervisor steal %.1f %%\n",
					w, i+1, runs, s, seed, 100*float64(steal1-steal)/float64(max(total1-total, 1)))
			}
		}
		for _, m := range bf.EndToEnd {
			a := sets[0][m.Name]
			fmt.Printf("%-12s %-16s runs %.6g", w, m.Name, a)
			if aa {
				fmt.Printf(" | %.6g", sets[1][m.Name])
			}
			fmt.Println()
			var got, limit float64
			var what string
			if aa {
				ma, mb := median(a), median(sets[1][m.Name])
				got, limit, what = math.Abs(mb-ma)/math.Abs(ma), m.Bound/2, fmt.Sprintf("medians %.6g vs %.6g, gap", ma, mb)
			} else {
				_, q2, _ := quartiles(a)
				got, limit, what = quartileSpread(a), m.Bound/3, fmt.Sprintf("median %.6g, quartile spread", q2)
			}
			verdict := "ok"
			// The driver exempts setup_s from the spread check, not from the
			// comparison of medians.
			if got > limit && (aa || m.Name != "setup_s") {
				verdict = "EXCEEDED"
				exceeded++
			}
			fmt.Printf("%-12s %-16s %s %.2f%%  limit %.2f%% (bound %.0f%%)  %s\n",
				w, m.Name, what, 100*got, 100*limit, 100*m.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d (workload, metric) pairs exceed their limit: lengthen the panel or widen the bound", exceeded)
	}
	return nil
}
