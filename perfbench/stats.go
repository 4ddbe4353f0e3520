package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// phase is what one closed-loop phase completed. Throughput counts only
// work finished inside [start, end]. Latencies and throughput are on the
// process CPU clock (see cpuNow); wall-clock figures ride along as
// per-layer context.
type phase struct {
	start, end       time.Time
	cpuStart, cpuEnd time.Duration
	// runs is the number of verified simulator runs completed in the window.
	runs int
	// runMs holds one CPU-clock sample per simulated run (check workloads)
	// or per job's service time divided by its runs (service workloads).
	runMs []sample
	// jobMs holds one CPU-clock sample per campaign or job, submit to
	// verdict; jobWallMs the same on the wall clock.
	jobMs, jobWallMs []sample
	// queueMs and serviceMs split service-workload job time at Job.Started.
	queueMs, serviceMs []float64
	// spanMs collects traced span durations by span name.
	spanMs map[string][]float64
	// runTail and jobTail are the workload's fixed tail percentiles.
	runTail, jobTail float64
	// passRates holds each complete pass's runs per CPU-second.
	passRates []float64
	// peakRSS is the peak resident set of the phase in MB.
	peakRSS float64
	// allocBytes is the Go heap allocated over the phase, allocRuns the
	// runs completed in it.
	allocBytes uint64
	allocRuns  int
	// requests counts client HTTP requests other than status polls
	// (service workloads).
	requests int64
	// attempted counts operations, including ones finished after the
	// window closed. Failures are collected by the workload and counted
	// when it verifies its results.
	attempted int
}

// passRate is the median over the phase's complete passes of each pass's
// runs per second of process CPU time: a burst of host contention moves
// one pass, not the figure.
func (p *phase) passRate() float64 { return median(p.passRates) }

// runsPerSec is the same throughput per wall-clock second.
func (p *phase) runsPerSec() float64 { return ratio(float64(p.runs), p.end.Sub(p.start).Seconds()) }

func (p *phase) span(name string, d time.Duration) {
	if p.spanMs == nil {
		p.spanMs = map[string][]float64{}
	}
	p.spanMs[name] = append(p.spanMs[name], ms(d))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// result is one invocation's output line plus diagnostics for stderr.
type result struct {
	attempted, failed int
	metrics           map[string]metricValue
	failures          []string
	notes             []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{metrics: map[string]metricValue{}} }

func (r *result) metric(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) absorb(p *phase) { r.attempted += p.attempted }

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *result) line() any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics}
}

// percentile interpolates linearly between closest ranks, as
// numpy.percentile does by default.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// sample is one latency observation of one pool entry (group). Pools mix
// apps whose runs differ by 10×, so the latency statistics weight every
// entry equally instead of letting the mix at the window's edge move them.
type sample struct {
	group int
	v     float64
}

// groupMedians returns each group's median.
func groupMedians(xs []sample) map[int]float64 {
	by := map[int][]float64{}
	for _, x := range xs {
		by[x.group] = append(by[x.group], x.v)
	}
	out := map[int]float64{}
	for g, vs := range by {
		out[g] = median(vs)
	}
	return out
}

// groupP50 is the geometric mean over groups of each group's median.
func groupP50(xs []sample) float64 {
	meds := groupMedians(xs)
	if len(meds) == 0 {
		return 0
	}
	logSum := 0.0
	for _, m := range meds {
		logSum += math.Log(m)
	}
	return math.Exp(logSum / float64(len(meds)))
}

// groupTail is groupP50 scaled by the pooled pct-th percentile of every
// sample divided by its group's median. With one group it is the plain
// percentile.
func groupTail(xs []sample, pct float64) float64 {
	meds := groupMedians(xs)
	norm := make([]float64, len(xs))
	for i, x := range xs {
		norm[i] = x.v / meds[x.group]
	}
	return groupP50(xs) * percentile(norm, pct)
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) tracking, so the next
// peakRSSMB covers only what follows.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not load).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix derives independent seeds from the workload seed.
func splitmix(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) & (1<<62 - 1))
}

// cpuNow reads the process CPU clock (CLOCK_PROCESS_CPUTIME_ID): the time
// the process's threads actually ran. On a shared 2-vCPU host the wall
// clock also counts time the hypervisor steals from the VM (2–24% of it,
// changing every few seconds) and time spent waiting for a CPU; the CPU
// clock excludes both, which is what keeps the timings steady.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2 /* CLOCK_PROCESS_CPUTIME_ID */, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// cpuTrack samples the CPU clock against the wall clock, so that wall-clock
// instants from the server's job records map onto the CPU clock.
type cpuTrack struct {
	mu   sync.Mutex
	wall []time.Time
	cpu  []time.Duration
	stop chan struct{}
	done chan struct{}
}

func startCPUTrack() *cpuTrack {
	t := &cpuTrack{stop: make(chan struct{}), done: make(chan struct{})}
	t.sample()
	go func() {
		defer close(t.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.sample()
			}
		}
	}()
	return t
}

func (t *cpuTrack) sample() {
	w, c := time.Now(), cpuNow()
	t.mu.Lock()
	t.wall = append(t.wall, w)
	t.cpu = append(t.cpu, c)
	t.mu.Unlock()
}

// close stops the sampler after one last sample.
func (t *cpuTrack) close() {
	close(t.stop)
	<-t.done
	t.sample()
}

// at interpolates the CPU clock at wall-clock instant w.
func (t *cpuTrack) at(w time.Time) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := sort.Search(len(t.wall), func(i int) bool { return !t.wall[i].Before(w) })
	switch {
	case i == 0:
		return t.cpu[0]
	case i == len(t.wall):
		return t.cpu[i-1]
	}
	span := t.wall[i].Sub(t.wall[i-1])
	if span <= 0 {
		return t.cpu[i]
	}
	f := float64(w.Sub(t.wall[i-1])) / float64(span)
	return t.cpu[i-1] + time.Duration(f*float64(t.cpu[i]-t.cpu[i-1]))
}
