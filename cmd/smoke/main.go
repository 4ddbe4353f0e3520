// Command smoke is the end-to-end smoke gate over real daemon processes.
// It builds checkd and checkworker once, then runs each named scenario
// against freshly booted daemons:
//
//   - obs: one small campaign through a checkd; /metrics from the live
//     daemon must lint clean before and after and carry every job
//     lifecycle, queue, store and hash-path series.
//   - explore: one explore job per strategy, each hunting a seeded Figure 7
//     bug in a regime where that strategy is known to find it; every search
//     must report its divergence within budget, and /metrics must carry
//     lint-clean per-strategy explore series with a divergence counted for
//     each.
//   - fleet: a checkd -fleet coordinator plus four checkworker processes
//     run the full 17-app campaign while one worker is SIGKILLed mid-shard;
//     every report must be byte-identical to a plain single-node checkd's,
//     and the merged exposition must lint, carry every checkfleet series
//     and show the kill (an expired lease, re-queued runs).
//
// Usage:
//
//	smoke [-keep] scenario...
//
// `make obs-smoke`, `make explore-smoke` and `make fleet-smoke` each run
// one scenario.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"instantcheck/internal/apps"
	"instantcheck/internal/farm"
	"instantcheck/internal/obs"
)

var scenarios = map[string]func(dir string) error{
	"obs":     obsScenario,
	"explore": exploreScenario,
	"fleet":   fleetScenario,
}

func main() {
	keep := flag.Bool("keep", false, "keep the temp store/binary directory for inspection")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: smoke [-keep] {obs|explore|fleet}...")
		flag.PrintDefaults()
	}
	flag.Parse()
	log.SetPrefix("smoke: ")
	log.SetFlags(0)
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, name := range flag.Args() {
		if scenarios[name] == nil {
			log.Printf("unknown scenario %q", name)
			flag.Usage()
			os.Exit(2)
		}
	}
	if err := run(flag.Args(), *keep); err != nil {
		log.Fatal(err)
	}
	log.Print("PASS")
}

func run(names []string, keep bool) error {
	dir, err := os.MkdirTemp("", "smoke")
	if err != nil {
		return err
	}
	if keep {
		log.Printf("workdir %s", dir)
	} else {
		defer os.RemoveAll(dir)
	}
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/checkd", "./cmd/checkworker")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build daemons: %w", err)
	}
	for _, name := range names {
		if err := scenarios[name](dir); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		log.Printf("%s: PASS", name)
	}
	return nil
}

// obsRequired are the metric families a post-campaign scrape must carry a
// sample of: job lifecycle, queue depth, store activity and hash path.
var obsRequired = []string{
	"checkfarm_jobs_submitted_total",
	"checkfarm_jobs_finished_total",
	"checkfarm_jobs_running",
	"checkfarm_queue_depth",
	"checkfarm_runs_executed_total",
	"checkfarm_store_appends_total",
	"checkfarm_store_append_seconds_count",
	"instantcheck_stores_total",
	"instantcheck_stores_hashed_total",
	"instantcheck_checkpoints_total",
	"instantcheck_fastwindow_misses_total",
	"instantcheck_traverse_delta_sweeps_total",
	"instantcheck_traverse_dirty_pages_total",
	"instantcheck_storebuffer_flushes_total",
	"instantcheck_storebuffer_coalesced_total",
	"checkd_goroutines",
}

func obsScenario(dir string) error {
	c, stop, err := startDaemon(dir, "obs.log", "-pprof")
	if err != nil {
		return err
	}
	defer stop()

	// A fresh daemon already serves a well-formed exposition.
	if _, err := scrapeAndLint(c); err != nil {
		return fmt.Errorf("fresh-daemon scrape: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := runJob(ctx, c, farm.JobSpec{App: "fft", Runs: 4, Threads: 4, Small: true}); err != nil {
		return err
	}
	samples, err := scrapeAndLint(c)
	if err != nil {
		return fmt.Errorf("post-campaign scrape: %w", err)
	}
	if err := requireSeries(seriesSums(samples), obsRequired); err != nil {
		return err
	}
	log.Printf("obs: scraped %d samples from live daemon, all %d required series present",
		len(samples), len(obsRequired))
	return nil
}

// exploreJobs pairs every strategy with a seeded bug it must find. The
// uniform and coverage searches run at the scheduler's default preemption
// cadence, where any schedule perturbation surfaces the atomicity bug in a
// few runs; pct and race-directed run in the rare-preemption stress regime
// their schedule shaping is for (the regimes measured by `instantcheck
// exploreeff`).
var exploreJobs = []farm.JobSpec{
	{App: "waterSP", Kind: "explore", Strategy: "uniform", Bug: "atomicity",
		Runs: 10, Threads: 4, InputSeed: 1, RoundFP: true, Small: true},
	{App: "waterSP", Kind: "explore", Strategy: "coverage", Bug: "atomicity",
		Runs: 10, Threads: 4, InputSeed: 1, RoundFP: true, Small: true},
	{App: "waterSP", Kind: "explore", Strategy: "race-directed", Bug: "atomicity",
		Runs: 40, Threads: 4, InputSeed: 1, RoundFP: true, Small: true, SwitchInterval: 4000},
	{App: "radix", Kind: "explore", Strategy: "pct", Bug: "order",
		Runs: 40, Threads: 4, InputSeed: 1, Small: true, SwitchInterval: 20000},
}

func exploreScenario(dir string) error {
	c, stop, err := startDaemon(dir, "explore.log")
	if err != nil {
		return err
	}
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	for _, spec := range exploreJobs {
		job, err := runJob(ctx, c, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Strategy, err)
		}
		rep, err := c.Report(ctx, job.ID)
		if err != nil {
			return fmt.Errorf("report %s: %w", spec.Strategy, err)
		}
		out := rep.Explore
		if out == nil || out.Strategy != spec.Strategy {
			return fmt.Errorf("%s job report carries outcome %+v", spec.Strategy, out)
		}
		if !out.Found {
			return fmt.Errorf("explore[%s] missed the seeded %s bug in %s within its %d-run budget",
				spec.Strategy, spec.Bug, spec.App, out.Budget)
		}
		log.Printf("explore[%s]: %s %s bug found at run %d of budget %d",
			spec.Strategy, spec.App, spec.Bug, out.DivergedRun, out.Budget)
	}

	// The live scrape lints clean and carries every strategy's explore
	// series, with at least one divergence counted per strategy.
	samples, err := scrapeAndLint(c)
	if err != nil {
		return fmt.Errorf("post-search scrape: %w", err)
	}
	runsBy := map[string]float64{}
	divBy := map[string]float64{}
	for _, s := range samples {
		switch s.Name {
		case "checkfarm_explore_runs_total":
			runsBy[s.Label("strategy")] = s.Value
		case "checkfarm_explore_divergences_total":
			divBy[s.Label("strategy")] = s.Value
		}
	}
	for _, spec := range exploreJobs {
		if runsBy[spec.Strategy] == 0 {
			return fmt.Errorf("scrape has no checkfarm_explore_runs_total{strategy=%q}", spec.Strategy)
		}
		if divBy[spec.Strategy] == 0 {
			return fmt.Errorf("scrape counts no divergence for strategy %q", spec.Strategy)
		}
	}
	log.Printf("explore: scraped %d samples from live daemon, explore series present for all %d strategies",
		len(samples), len(exploreJobs))
	return nil
}

// fleetRequired are the checkfleet families a post-campaign scrape of the
// merged exposition must carry, alongside a sentinel from the farm side
// proving the merge really concatenates both registries.
var fleetRequired = []string{
	"checkfleet_workers_live",
	"checkfleet_worker_live",
	"checkfleet_leases_active",
	"checkfleet_campaigns_active",
	"checkfleet_shards_leased_total",
	"checkfleet_shards_completed_total",
	"checkfleet_shards_expired_total",
	"checkfleet_runs_requeued_total",
	"checkfleet_blob_fetch_misses_total",
	"checkfleet_blob_serve_bytes_total",
	"checkfleet_appendback_records_total",
	"checkfleet_appendback_bytes_total",
	"checkfarm_jobs_submitted_total",
}

func fleetScenario(dir string) error {
	// Coordinator mode, small shards and a short lease TTL so the injected
	// kill re-dispatches quickly.
	fleetC, stopFleet, err := startDaemon(dir, "fleet.log", "-fleet", "-shard-size", "4", "-lease-ttl", "1s")
	if err != nil {
		return err
	}
	defer stopFleet()

	// Four workers. The victim replays slowly (per-run latency), so it is
	// guaranteed to be mid-shard when the SIGKILL lands.
	var workers []*exec.Cmd
	defer func() {
		for _, w := range workers {
			w.Process.Kill()
			w.Wait()
		}
	}()
	for _, name := range []string{"victim", "w1", "w2", "w3"} {
		args := []string{"-coordinator", fleetC.BaseURL, "-name", name,
			"-cache", filepath.Join(dir, "cache-"+name), "-poll", "20ms"}
		if name == "victim" {
			args = append(args, "-run-latency", "80ms")
		}
		w := exec.Command(filepath.Join(dir, "checkworker"), args...)
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			return fmt.Errorf("start worker %s: %w", name, err)
		}
		workers = append(workers, w)
	}
	victim := workers[0]

	// The full 17-app evaluation campaign, fully seeded so the plain daemon
	// below resolves byte-identical campaigns.
	var specs []farm.JobSpec
	var jobs []*farm.Job
	for _, app := range apps.Names() {
		spec := farm.JobSpec{App: app, Runs: 6, Threads: 4, Seed: 50, InputSeed: 7, Small: true}
		job, err := fleetC.Submit(context.Background(), spec)
		if err != nil {
			return fmt.Errorf("submit %s: %w", app, err)
		}
		specs = append(specs, spec)
		jobs = append(jobs, job)
	}
	log.Printf("fleet: submitted %d campaigns to the fleet daemon", len(jobs))

	// Kill the victim as soon as it holds a lease (SIGKILL: no farewell, no
	// flush — the lease must expire on its own).
	if err := awaitSample(fleetC, 30*time.Second, func(s obs.Sample) bool {
		return s.Name == "checkfleet_shards_leased_total" && s.Label("worker") == "victim" && s.Value >= 1
	}); err != nil {
		return fmt.Errorf("victim never leased a shard: %w", err)
	}
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		return fmt.Errorf("kill victim: %w", err)
	}
	victim.Wait()
	log.Print("fleet: SIGKILLed worker \"victim\" mid-shard")

	// Every campaign must still converge.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	for _, job := range jobs {
		done, err := fleetC.Wait(ctx, job.ID, 50*time.Millisecond)
		if err != nil {
			return fmt.Errorf("wait %s: %w", job.ID, err)
		}
		if done.State != farm.JobDone {
			return fmt.Errorf("fleet job %s (%s) finished as %s: %s", job.ID, done.Spec.App, done.State, done.Error)
		}
	}

	// The reference: a plain single-node checkd over the same specs.
	plainC, stopPlain, err := startDaemon(dir, "plain.log")
	if err != nil {
		return err
	}
	defer stopPlain()
	for i, job := range jobs {
		app := specs[i].App
		ref, err := runJob(ctx, plainC, specs[i])
		if err != nil {
			return fmt.Errorf("reference %s: %w", app, err)
		}
		fleetRep, err := fleetC.Report(ctx, job.ID)
		if err != nil {
			return err
		}
		plainRep, err := plainC.Report(ctx, ref.ID)
		if err != nil {
			return err
		}
		a, _ := json.Marshal(fleetRep)
		b, _ := json.Marshal(plainRep)
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s: fleet report differs from single-node:\nfleet  %s\nsingle %s", app, a, b)
		}
	}
	log.Printf("fleet: all %d fleet reports byte-identical to single-node", len(jobs))

	// The merged exposition lints, carries every fleet series, and shows the
	// kill: at least one expired lease and one re-queued run.
	samples, err := scrapeAndLint(fleetC)
	if err != nil {
		return fmt.Errorf("post-campaign scrape: %w", err)
	}
	have := seriesSums(samples)
	if err := requireSeries(have, fleetRequired); err != nil {
		return err
	}
	if have["checkfleet_shards_expired_total"] < 1 {
		return fmt.Errorf("no lease expired despite the SIGKILL")
	}
	if have["checkfleet_runs_requeued_total"] < 1 {
		return fmt.Errorf("no runs re-queued despite the SIGKILL")
	}
	log.Printf("fleet: scraped %d samples: %v shard(s) expired, %v run(s) re-queued, all %d required series present",
		len(samples), have["checkfleet_shards_expired_total"], have["checkfleet_runs_requeued_total"], len(fleetRequired))
	return nil
}

// startDaemon launches one checkd from dir on a free port, with its store
// at dir/store, and waits for /healthz. stop SIGTERMs it and waits.
func startDaemon(dir, store string, extra ...string) (c *farm.Client, stop func(), err error) {
	// A free port for the daemon: bind :0, remember, release.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := append([]string{"-addr", addr, "-store", filepath.Join(dir, store)}, extra...)
	daemon := exec.Command(filepath.Join(dir, "checkd"), args...)
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return nil, nil, fmt.Errorf("start checkd: %w", err)
	}
	stop = func() {
		daemon.Process.Signal(syscall.SIGTERM)
		daemon.Wait()
	}
	c = farm.NewClient("http://" + addr)
	deadline := time.Now().Add(15 * time.Second)
	for {
		h, err := c.Health(context.Background())
		if err == nil && h.Status == "ok" {
			return c, stop, nil
		}
		if time.Now().After(deadline) {
			stop()
			return nil, nil, fmt.Errorf("daemon not healthy after 15s: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// runJob submits spec, waits for it to finish, and requires it done.
func runJob(ctx context.Context, c *farm.Client, spec farm.JobSpec) (*farm.Job, error) {
	job, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	done, err := c.Wait(ctx, job.ID, 50*time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("wait: %w", err)
	}
	if done.State != farm.JobDone {
		return nil, fmt.Errorf("job %s finished as %s: %s", job.ID, done.State, done.Error)
	}
	return done, nil
}

// awaitSample polls /metrics until some sample satisfies ok.
func awaitSample(c *farm.Client, timeout time.Duration, ok func(obs.Sample) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		samples, err := scrapeAndLint(c)
		if err == nil {
			for _, s := range samples {
				if ok(s) {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not reached after %v", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scrapeAndLint fetches /metrics and validates the exposition format.
func scrapeAndLint(c *farm.Client) ([]obs.Sample, error) {
	text, err := c.MetricsText(context.Background())
	if err != nil {
		return nil, err
	}
	if err := obs.Lint(strings.NewReader(text)); err != nil {
		return nil, fmt.Errorf("malformed exposition: %w", err)
	}
	return obs.ParseExposition(strings.NewReader(text))
}

// seriesSums totals the samples of each metric family over its labels.
func seriesSums(samples []obs.Sample) map[string]float64 {
	have := map[string]float64{}
	for _, s := range samples {
		have[s.Name] += s.Value
	}
	return have
}

// requireSeries fails when any named family has no sample.
func requireSeries(have map[string]float64, names []string) error {
	var missing []string
	for _, name := range names {
		if _, ok := have[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("scrape is missing required series: %s", strings.Join(missing, ", "))
	}
	return nil
}
