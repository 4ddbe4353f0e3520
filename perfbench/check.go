package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"instantcheck/internal/apps"
	"instantcheck/internal/core"
	"instantcheck/internal/sim"
)

// checkRuns is the campaign length of the check workloads: a recording run
// and two replays, executed one at a time through core.Runner.
const checkRuns = 3

// checkSpec is one campaign of a check workload's pool.
type checkSpec struct {
	camp  core.Campaign
	build core.Builder
}

// checkWorkload drives library campaigns through core.Campaign.NewRunner →
// Record → Replay… → Assemble, cycling through a small seeded pool whose
// references the library's sequential Check computes before timing starts.
type checkWorkload struct {
	wname            string
	pool             []checkSpec
	runTail, jobTail float64
	refs             []*core.Report
	// cnt holds the count phase's run results, for the per-layer counts.
	cnt      []*sim.Result
	failures []string
}

// newCheckHeavy is ocean, streamcluster and sphinx3 at 8 threads under
// HWInc: the inline fast window misses on most accesses and every run
// checkpoints hundreds to thousands of times.
func newCheckHeavy(seed int64) *checkWorkload {
	return newCheckWorkload("check-heavy", seed, sim.HWInc, 90, 70, "ocean", "streamcluster", "sphinx3")
}

// newCheckLuTr is lu under SWTr: the fast window mostly hits while every
// run sweeps millions of checkpoint words through the delta traversal.
func newCheckLuTr(seed int64) *checkWorkload {
	return newCheckWorkload("check-lu-tr", seed, sim.SWTr, 88, 63, "lu")
}

func newCheckWorkload(name string, seed int64, scheme sim.Scheme, runTail, jobTail float64, appNames ...string) *checkWorkload {
	w := &checkWorkload{wname: name, runTail: runTail, jobTail: jobTail}
	for i, an := range appNames {
		app := apps.ByName(an)
		camp, err := core.Campaign{
			Runs:             checkRuns,
			Threads:          8,
			Scheme:           scheme,
			BaseScheduleSeed: splitmix(seed, uint64(i)),
			InputSeed:        splitmix(seed, uint64(100+i)),
		}.WithDefaults()
		if err != nil {
			panic(err) // the pool is fixed; a bad campaign is a bug here
		}
		w.pool = append(w.pool, checkSpec{camp: camp, build: app.Builder(apps.Options{Threads: 8})})
	}
	return w
}

func (w *checkWorkload) name() string { return w.wname }

// boot has no server to stand up; the set-up is building the runner and
// one discarded two-run warm-up campaign of the pool's last entry.
func (w *checkWorkload) boot() error {
	sp := w.pool[len(w.pool)-1]
	camp := sp.camp
	camp.Runs = 2
	_, err := camp.Check(sp.build)
	return err
}

func (w *checkWorkload) prepare() error {
	w.refs = w.refs[:0]
	for _, sp := range w.pool {
		rep, err := sp.camp.Check(sp.build) // sequential: Parallelism is 1
		if err != nil {
			return err
		}
		w.refs = append(w.refs, rep)
	}
	return nil
}

func (w *checkWorkload) run(deadline time.Time, tr *tracer) *phase {
	ph := &phase{runTail: w.runTail, jobTail: w.jobTail}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph.start, ph.cpuStart = time.Now(), cpuNow()
	// Whole passes over the pool only, so every window holds the same mix.
	passCPU, passRuns := ph.cpuStart, 0
	for k := 0; k%len(w.pool) != 0 || time.Now().Before(deadline); k++ {
		w.campaign(k, tr, ph, nil)
		if (k+1)%len(w.pool) == 0 {
			c := cpuNow()
			ph.passRates = append(ph.passRates, float64(ph.runs-passRuns)/(c-passCPU).Seconds())
			passCPU, passRuns = c, ph.runs
		}
	}
	ph.peakRSS = peakRSSMB()
	ph.end, ph.cpuEnd = time.Now(), cpuNow()
	runtime.ReadMemStats(&ms1)
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ph.allocRuns = ph.runs
	return ph
}

func (w *checkWorkload) count(tr *tracer) (*phase, error) {
	ph := &phase{runTail: w.runTail, jobTail: w.jobTail, start: time.Now(), cpuStart: cpuNow()}
	w.cnt = w.cnt[:0]
	for k := range w.pool {
		w.campaign(k, tr, ph, &w.cnt)
	}
	ph.end, ph.cpuEnd = time.Now(), cpuNow()
	return ph, nil
}

// campaign runs pool entry k mod len(pool) one run at a time, timing every
// Runner call on the CPU clock (spans stay on the wall clock), and verifies
// the campaign against the reference once the clocks stop.
func (w *checkWorkload) campaign(k int, tr *tracer, ph *phase, keep *[]*sim.Result) {
	i := k % len(w.pool)
	sp := w.pool[i]
	ph.attempted++
	trace, root := tr.newID(), tr.newID()
	t0, c0 := time.Now(), cpuNow()
	timed := func(name string, f func() error) error {
		s := time.Now()
		err := f()
		e := time.Now()
		tr.record(trace, 0, root, name, s, e)
		if tr != nil {
			ph.span(name, e.Sub(s))
		}
		return err
	}
	r, err := sp.camp.NewRunner(sp.build)
	if err != nil {
		w.failf("campaign %d: %v", k, err)
		return
	}
	results := make([]*sim.Result, sp.camp.Runs)
	for run := range results {
		c := cpuNow()
		var err error
		if run == 0 {
			err = timed("core.Runner.Record", func() (err error) { results[run], err = r.Record(); return })
		} else {
			err = timed("core.Runner.Replay", func() (err error) { results[run], err = r.Replay(run); return })
		}
		if err != nil {
			w.failf("campaign %d run %d: %v", k, run, err)
			return
		}
		ph.runMs = append(ph.runMs, sample{i, ms(cpuNow() - c)})
	}
	var rep *core.Report
	err = timed("core.Campaign.Assemble", func() (err error) { rep, err = sp.camp.Assemble(r.Name(), results); return })
	t1, c1 := time.Now(), cpuNow()
	tr.record(trace, root, 0, "core.Campaign", t0, t1)
	if err != nil {
		w.failf("campaign %d assemble: %v", k, err)
		return
	}
	ph.jobMs = append(ph.jobMs, sample{i, ms(c1 - c0)})
	ph.jobWallMs = append(ph.jobWallMs, sample{i, ms(t1.Sub(t0))})
	ph.runs += len(results)
	if err := sameAsReference(rep, w.refs[i]); err != nil {
		w.failf("campaign %d (%s): %v", k, rep.Program, err)
		return
	}
	if keep != nil {
		*keep = append(*keep, results...)
	}
}

func (w *checkWorkload) failf(format string, args ...any) {
	w.failures = append(w.failures, fmt.Sprintf(format, args...))
}

// sameAsReference requires every run's State Hash vector, schedule length
// and checkpoint count, and the summarized report, to equal the reference.
func sameAsReference(rep, ref *core.Report) error {
	if len(rep.Runs) != len(ref.Runs) {
		return fmt.Errorf("%d runs, reference has %d", len(rep.Runs), len(ref.Runs))
	}
	for i, res := range rep.Runs {
		want := ref.Runs[i]
		if !reflect.DeepEqual(res.SHVector(), want.SHVector()) {
			return fmt.Errorf("run %d: State Hash vector differs from the reference", i+1)
		}
		if res.Counters.SchedOps != want.Counters.SchedOps || res.Counters.Checkpoints != want.Counters.Checkpoints {
			return fmt.Errorf("run %d: %d ops / %d checkpoints, reference %d / %d", i+1,
				res.Counters.SchedOps, res.Counters.Checkpoints, want.Counters.SchedOps, want.Counters.Checkpoints)
		}
	}
	if !reflect.DeepEqual(projectReport(rep), projectReport(ref)) {
		return fmt.Errorf("report differs from the reference")
	}
	return nil
}

func (w *checkWorkload) finish(res *result) {
	for _, f := range w.failures {
		res.fail("%s", f)
	}
	w.failures = nil
}

func (w *checkWorkload) layers(res *result, cnt, tb *phase) {
	simLayers(res, w.cnt)
	res.metric("core.record_ms", "ms", median(tb.spanMs["core.Runner.Record"]))
	res.metric("core.replay_ms", "ms", median(tb.spanMs["core.Runner.Replay"]))
	res.metric("core.assemble_ms", "ms", median(tb.spanMs["core.Campaign.Assemble"]))
	fillLayers(res)
}

func (w *checkWorkload) shutdown() {}
