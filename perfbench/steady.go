package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness report reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady is the steadiness report. It runs two sets of untraced runs of
// the current checkout, alternating which set goes first, one seed per
// pair (seeds 1..-seeds). For every workload and end-to-end metric it
// prints each set's median and quartile spread and whether the two agree
// within the metric's bound (see printSets).
// With -layers it also makes one traced run per set at seed 1 and lists
// the per-layer counts that differ between them.
//
//	bash perfbench/run.sh steady -seeds 5
//	bash perfbench/run.sh steady -workloads farm-mixed -layers
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	only := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	seeds := fs.Int("seeds", 5, "runs per set and workload, one seed each")
	seconds := fs.Int("seconds", 0, "measured seconds per run (default: BENCHMARK.json run_seconds)")
	layers := fs.Bool("layers", false, "also compare the per-layer counts of one traced run per set")
	nsets := fs.Int("sets", 2, "1 runs set A only and prints its spreads")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = bf.RunSeconds
	}
	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	} else {
		for _, w := range bf.Workloads {
			names = append(names, w.Name)
		}
	}
	ok := true
	for _, wl := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < *seeds; i++ {
			seed := int64(i + 1)
			order := []int{0, 1}
			switch {
			case *nsets == 1:
				order = []int{0}
			case i%2 == 1:
				order = []int{1, 0}
			}
			for _, s := range order {
				line, err := benchRun(wl, seed, *seconds, 0)
				if err != nil {
					return fmt.Errorf("%s seed %d set %c: %w", wl, seed, 'A'+s, err)
				}
				for name, m := range line.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("\n%s (%d seeds per set, %ds)\n", wl, *seeds, *seconds)
		if *seeds > 0 && !printSets(bf, sets) {
			ok = false
		}
		if *layers {
			var per [2]map[string]float64
			for s := range per {
				line, err := benchRun(wl, 1, *seconds, 1)
				if err != nil {
					return fmt.Errorf("%s traced set %c: %w", wl, 'A'+s, err)
				}
				per[s] = map[string]float64{}
				for name, m := range line.Metrics {
					per[s][name] = m.Value
				}
			}
			var keys []string
			for k := range per[0] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Printf("  per-layer, seed 1 (exact = identical in both sets):\n")
			for _, k := range keys {
				tag := "exact"
				if per[0][k] != per[1][k] {
					tag = "differs"
				}
				fmt.Printf("    %-40s %16.4f %16.4f %s\n", k, per[0][k], per[1][k], tag)
			}
		}
	}
	if !ok {
		return fmt.Errorf("not steady")
	}
	return nil
}

// printSets prints the end-to-end table for one workload and reports
// whether every metric is steady by the bounds' own criterion: the two
// medians differ by no more than the bound, and each set's quartile spread
// stays within it (setup_s is held to its median only). A spread above a
// third of the bound passes but is flagged: that is the margin the bounds
// were chosen to leave.
func printSets(bf benchmarkFile, sets [2]map[string][]float64) bool {
	ok := true
	fmt.Printf("  %-18s %12s %8s %12s %8s %8s %8s %6s %s\n",
		"metric", "median A", "spread", "median B", "spread", "B-A", "bound", "both", "verdict")
	for _, m := range bf.EndToEnd {
		a, b := sets[0][m.Name], sets[1][m.Name]
		if len(b) == 0 {
			b = a // one set: compare it with itself
		}
		if len(a) == 0 {
			fmt.Printf("  %-18s missing from the output\n", m.Name)
			ok = false
			continue
		}
		medA, medB := median(a), median(b)
		diff := (medB - medA) / medA
		spread := math.Max(iqrShare(a), iqrShare(b))
		verdict := "ok"
		switch {
		case math.Abs(diff) > m.Bound:
			verdict = "MEDIANS DISAGREE"
			ok = false
		case m.Name == "setup_s":
		case spread > m.Bound:
			verdict = "SPREAD ABOVE BOUND"
			ok = false
		case spread > m.Bound/3:
			verdict = "ok, spread above a third of the bound"
		}
		fmt.Printf("  %-18s %12.4f %7.2f%% %12.4f %7.2f%% %7.2f%% %7.0f%% %5.1f%% %s\n",
			m.Name, medA, 100*iqrShare(a), medB, 100*iqrShare(b), 100*diff, 100*m.Bound, 100*iqrShare(append(append([]float64(nil), a...), b...)), verdict)
	}
	return ok
}

type benchLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// benchRun runs the benchmark once and parses its last output line.
func benchRun(wl string, seed int64, seconds, trace int) (*benchLine, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", wl, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %s", err, lastLines(stderr.String(), 5))
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
	}
	var line benchLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, err
	}
	if !line.Correct {
		return nil, fmt.Errorf("run reported incorrect results")
	}
	return &line, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// iqrShare is the distance between the first and third quartile, as
// Python's statistics.quantiles(values, n=4) gives them, over the median.
func iqrShare(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(s)
}
