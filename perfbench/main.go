// Command perfbench is the repository's benchmark. It runs one of four
// seeded, closed-loop workloads against the checker library, the check farm
// and the fleet from a single process, checks every result against a
// reference computed by the library's sequential path, and prints one JSON
// object as the last line of standard output:
//
//	bash perfbench/run.sh --workload check-heavy --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// makes the traced run instead: spans, a CPU profile bucketed by module, and
// exact per-run counts, reported as the per-layer metrics.
//
// A timed phase lasts --seconds of wall-clock time; the timings inside it are
// on the process CPU clock (see cpuNow for why).
//
//	bash perfbench/run.sh steady --workloads check-heavy,farm-mixed --seeds 5
//
// runs the steadiness report (see steady.go).
//
// The benchmark measures from outside the program: it times calls into
// core.Runner, farm.Client and fleet.Worker, reads counts from sim.Result
// and from /metrics scrapes, and buckets a CPU profile by module.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// processStart anchors setup_s: the first setup is timed from here.
var processStart = time.Now()

// setupReps is how many times a run stands its system up; setup_s is the
// median, so a single slow boot does not move the gate.
const setupReps = 3

// outDir holds traces and profiles, inside the checkout the benchmark runs in.
const outDir = ".bench_build/perfbench"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "wall-clock length of the measured phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, 1: traced run with per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	d := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 0 {
		res, err = untraced(w, d)
	} else {
		res, err = traced(w, d, fmt.Sprintf("%s/%s-seed%d", outDir, w.name(), *seed))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	out, _ := json.Marshal(res.line())
	fmt.Println(string(out))
	if !res.correct() {
		os.Exit(1)
	}
}

// workload is one benchmark scenario. Every method runs on the caller's
// goroutine; concurrency lives inside run and count.
type workload interface {
	name() string
	// boot stands the system under test up on fresh state and completes
	// one discarded warm-up operation.
	boot() error
	// prepare computes what the timed phases verify against, outside any
	// timed phase.
	prepare() error
	// run drives the closed loop until deadline and returns what completed.
	run(deadline time.Time, tr *tracer) *phase
	// count drives the workload's fixed-length operation list, so that every
	// count it yields repeats exactly at a fixed seed.
	count(tr *tracer) (*phase, error)
	// finish verifies what the phases produced; failures land in res.
	finish(res *result)
	// layers fills the per-layer metrics from the fixed-length count phase
	// and the traced timed phase.
	layers(res *result, cnt, tb *phase)
	// shutdown stops every goroutine and removes on-disk state.
	shutdown()
}

func workloadNames() []string {
	return []string{"check-heavy", "check-lu-tr", "farm-mixed", "fleet-replay"}
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "check-heavy":
		return newCheckHeavy(seed), nil
	case "check-lu-tr":
		return newCheckLuTr(seed), nil
	case "farm-mixed":
		return newFarmMixed(seed), nil
	case "fleet-replay":
		return newFleetReplay(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// untraced is the --trace 0 run: set up several times, then one timed phase
// whose figures are the end-to-end metrics.
func untraced(w workload, d time.Duration) (*result, error) {
	res := newResult()
	var setups []float64
	start := time.Duration(0) // the CPU clock starts with the process
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.shutdown()
			start = cpuNow()
		}
		if err := w.boot(); err != nil {
			w.shutdown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (cpuNow() - start).Seconds())
	}
	defer w.shutdown()
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	runtime.GC()
	resetPeakRSS()
	ph := w.run(time.Now().Add(d), nil)
	w.finish(res)
	res.absorb(ph)
	if ph.runs == 0 || len(ph.runMs) == 0 || len(ph.jobMs) == 0 {
		return nil, fmt.Errorf("timed phase completed no work")
	}
	res.metric("setup_s", "s", median(setups))
	res.metric("runs_per_cpu_s", "1/s", ph.passRate())
	res.metric("run_cpu_ms_p50", "ms", groupP50(ph.runMs))
	res.metric("run_cpu_ms_tail", "ms", groupTail(ph.runMs, ph.runTail))
	res.metric("job_cpu_ms_p50", "ms", groupP50(ph.jobMs))
	res.metric("job_cpu_ms_tail", "ms", groupTail(ph.jobMs, ph.jobTail))
	res.metric("peak_rss_mb", "MB", ph.peakRSS)
	res.metric("alloc_mb_per_run", "MB", float64(ph.allocBytes)/float64(ph.allocRuns)/1e6)
	res.notef("run_cpu_ms_tail = p%g of %d runs, job_cpu_ms_tail = p%g of %d jobs; %d runs in %.2fs (%.2f CPU-s); wall clock: %.2f runs/s, job p50 %.1f ms",
		ph.runTail, len(ph.runMs), ph.jobTail, len(ph.jobMs), ph.runs, ph.end.Sub(ph.start).Seconds(),
		(ph.cpuEnd - ph.cpuStart).Seconds(), ph.runsPerSec(), groupP50(ph.jobWallMs))
	return res, nil
}

// traced is the --trace 1 run. The fixed-length count phase comes first, on
// fresh state, so its counts repeat exactly at a fixed seed. Then two timed
// halves, untraced and traced: their throughput ratio is the tracing
// overhead, and the traced half carries the CPU profile.
func traced(w workload, d time.Duration, stem string) (*result, error) {
	res := newResult()
	if err := w.boot(); err != nil {
		w.shutdown()
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer w.shutdown()
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	tr := newTracer()
	cnt, err := w.count(tr)
	if err != nil {
		return nil, fmt.Errorf("count phase: %w", err)
	}
	res.absorb(cnt)

	runtime.GC()
	ta := w.run(time.Now().Add(d/2), nil)
	res.absorb(ta)

	runtime.GC()
	profPath := stem + ".pprof"
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	runtime.SetCPUProfileRate(profileHz) // StartCPUProfile keeps this rate
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	tb := w.run(time.Now().Add(d/2), tr)
	pprof.StopCPUProfile()
	pf.Close()
	res.absorb(tb)
	w.finish(res)

	buckets, samples, err := profileBuckets(profPath)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, b := range profBuckets {
		res.metric("prof."+b, "ratio", buckets[b])
	}
	if buckets["other"] > 0.05 {
		res.notef("prof.other = %.3f exceeds the 5%% coverage bar", buckets["other"])
	}
	res.metric("trace.overhead_frac", "ratio", 1-ratio(tb.passRate(), ta.passRate()))
	res.metric("wall.runs_per_s", "1/s", tb.runsPerSec())
	res.metric("wall.job_ms_p50", "ms", groupP50(tb.jobWallMs))
	w.layers(res, cnt, tb)
	if err := tr.write(stem + ".trace.json"); err != nil {
		return nil, err
	}
	res.notef("traced: %d spans, %d distinct profile stacks in %s; runs per CPU-second untraced %.2f, traced %.2f",
		tr.len(), samples, filepath.Base(profPath), ta.passRate(), tb.passRate())
	return res, nil
}
