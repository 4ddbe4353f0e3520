package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"instantcheck/internal/apps"
	"instantcheck/internal/farm"
	"instantcheck/internal/fleet"
	"instantcheck/internal/obs"
	"instantcheck/internal/sim"
)

// Deployment settings of the in-process farm and fleet. They are the
// checkd/checkworker flags a deployment would set, recorded in the design.
const (
	// workerPoll is the fleet workers' idle lease poll (checkworker -poll),
	// well below the shortest job so an idle worker never sleeps through
	// one.
	workerPoll = 5 * time.Millisecond
	// peakPasses is how many passes over its pool a phase completes before
	// its peak RSS is read. The farm keeps every finished job in memory, so
	// a reading at the end of a phase would grow with how much work the
	// phase fit in; after a fixed number of passes it measures a fixed
	// amount.
	peakPasses = 2
	// shardSize is the fleet's runs per lease (checkd -shard-size): the
	// 16 replays of a fleet-replay job split into four shards, two per
	// worker, so neither worker idles while the other finishes.
	shardSize = 4
	// clientPoll is how often a client re-reads its oldest outstanding job.
	// Job latency comes from the server's job record, not from this clock.
	clientPoll = 10 * time.Millisecond
)

// lightApps are the 13 apps whose runs take 1–40 ms.
var lightApps = []string{
	"blackscholes", "fft", "radix", "swaptions", "volrend", "fluidanimate",
	"waterNS", "waterSP", "cholesky", "pbzip2", "barnes", "canneal", "radiosity",
}

// stack is an in-process farm — and, in fleet mode, a coordinator and two
// workers — served over loopback the way checkd serves it.
type stack struct {
	dir     string
	store   *farm.Store
	srv     *farm.Server
	hs      *http.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	clients []*client
	fs      string
}

// client is one farm.Client on its own single-connection transport, with
// its requests counted.
type client struct {
	*farm.Client
	transport *http.Transport
	// requests counts every request except status polls, whose number
	// depends on timing.
	requests atomic.Int64
}

// RoundTrip counts the request unless it reads one job's status, and sends
// it.
func (c *client) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := strings.CutPrefix(req.URL.Path, "/api/v1/jobs/"); !ok || req.Method != http.MethodGet || strings.Contains(id, "/") {
		c.requests.Add(1)
	}
	return c.transport.RoundTrip(req)
}

func bootStack(dir string, fleetMode bool, clients int) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &stack{dir: dir, fs: fsType(dir)}
	store, err := farm.OpenStore(filepath.Join(dir, "store.log"))
	if err != nil {
		return nil, err
	}
	st.store = store
	opts := farm.Options{RunWorkers: runtime.GOMAXPROCS(0)}
	var coord *fleet.Coordinator
	if fleetMode {
		coord = fleet.NewCoordinator(fleet.CoordinatorOptions{ShardSize: shardSize})
		opts.Dispatcher = coord
	}
	st.srv = farm.NewServer(store, opts)
	mux := http.NewServeMux()
	mux.Handle("/", st.srv.Handler())
	if coord != nil {
		if err := obs.LintMerged(st.srv.Registry(), coord.Registry()); err != nil {
			store.Close()
			return nil, err
		}
		mux.Handle("POST /api/v1/fleet/", coord.Handler())
		mux.Handle("GET /api/v1/fleet/", coord.Handler())
		mux.Handle("GET /metrics", obs.MergedHandler(st.srv.Registry(), coord.Registry()))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st.cancel = cancel
	st.srv.Start(ctx)
	st.hs = &http.Server{Handler: mux}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		st.hs.Serve(ln)
	}()
	url := "http://" + ln.Addr().String()
	if fleetMode {
		for i := 0; i < 2; i++ {
			w, err := fleet.NewWorker(fleet.WorkerOptions{
				Name:         fmt.Sprintf("w%d", i),
				Coordinator:  url,
				CacheDir:     filepath.Join(dir, fmt.Sprintf("cache%d", i)),
				PollInterval: workerPoll,
			})
			if err != nil {
				st.close()
				return nil, err
			}
			st.wg.Add(1)
			go func() {
				defer st.wg.Done()
				w.Run(ctx)
			}()
		}
	}
	for i := 0; i < clients; i++ {
		c := &client{Client: farm.NewClient(url), transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		c.HTTPClient = &http.Client{Transport: c}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

// close stops the server, workers and listener, waits for every goroutine
// it started, and removes the on-disk state.
func (st *stack) close() {
	st.cancel()
	st.srv.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	st.hs.Shutdown(ctx)
	cancel()
	st.wg.Wait()
	for _, c := range st.clients {
		c.transport.CloseIdleConnections()
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections() // the fleet workers' connections
	}
	st.store.Close()
	os.RemoveAll(st.dir)
}

// fsType names the filesystem holding dir, recorded next to the store.
func fsType(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown"
	}
	switch uint32(s.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(s.Type))
}

// jobOutcome is one submitted job as the client saw it.
type jobOutcome struct {
	k    int
	spec farm.JobSpec
	id   farm.JobID
	job  *farm.Job
	runs int
	// repSum is the SHA-256 of the report as the client decoded it.
	repSum   [32]byte
	explored *farm.ExploreOutcome
	err      error
}

// serviceWorkload drives a farm (or fleet) through its HTTP API with a
// closed loop: each client keeps depth jobs outstanding, so the server's
// queue never drains and throughput never waits on a poll.
type serviceWorkload struct {
	wname     string
	fleetMode bool
	clients   int
	depth     int
	runTail   float64
	jobTail   float64
	// countJobs is the fixed length of the count phase.
	countJobs int
	warm      farm.JobSpec
	pool      []farm.JobSpec

	st       *stack
	boots    int
	outcomes []*jobOutcome
	// cntJobs and the scrapes around the count phase feed the per-layer counts.
	cntJobs           []*jobOutcome
	cntBefore         scrape
	cntAfter          scrape
	tbBefore, tbAfter scrape
	refs              map[string]*reference
	failures          []string
}

// newFarmMixed is check jobs over the 13 light apps under the three schemes
// plus pct and race-directed explore jobs on the seeded Figure 7 bugs, fed
// by two clients to a farm with the local dispatcher and 2 run workers.
func newFarmMixed(seed int64) *serviceWorkload {
	w := &serviceWorkload{wname: "farm-mixed", clients: 2, depth: 2, runTail: 95, jobTail: 95}
	// One job per app, the schemes taking turns, keeps the pool short: a
	// 20 s run makes a dozen passes, so every spec's median has a dozen
	// samples.
	schemes := []string{"hwinc", "swinc", "swtr"}
	for i, app := range lightApps {
		w.pool = append(w.pool, farm.JobSpec{App: app, Runs: 8, Scheme: schemes[i%len(schemes)],
			Seed: splitmix(seed, uint64(i)), InputSeed: splitmix(seed, uint64(1000+i))})
	}
	// The exploreeff settings: 4 threads, a 40-run budget, and per-host
	// preemption intervals that make each bug rare under random schedules.
	// Their seeds are fixed: how many runs a search takes to find its bug
	// varies 8-fold between seeds, and would swamp the mix. pct searches
	// the radix order violation, the one it finds within the budget.
	explores := []struct {
		app, bug, strategy string
		interval           int
	}{
		{"waterNS", "semantic", "race-directed", 4000},
		{"waterSP", "atomicity", "race-directed", 4000},
		{"radix", "order", "pct", 20000},
	}
	for i, e := range explores {
		w.pool = append(w.pool, farm.JobSpec{App: e.app, Kind: "explore", Strategy: e.strategy, Bug: e.bug,
			Threads: 4, SwitchInterval: e.interval, Runs: 40, RoundFP: apps.ByName(e.app).UsesFP,
			Seed: int64(1000 * (i + 1)), InputSeed: 1})
	}
	shuffle(w.pool, seed)
	w.countJobs = len(w.pool)
	w.warm = farm.JobSpec{App: "fft", Runs: 4, Seed: splitmix(seed, 999)}
	return w
}

// newFleetReplay is check jobs of 17 runs (four 4-run replay shards) over
// the 13 light apps, dispatched by a fleet.Coordinator to two workers. The
// pool cycles, so later passes re-submit earlier specs and bundle fetches
// both hit and miss.
func newFleetReplay(seed int64) *serviceWorkload {
	w := &serviceWorkload{wname: "fleet-replay", fleetMode: true, clients: 1, depth: 3, runTail: 84, jobTail: 84}
	for i, app := range lightApps {
		w.pool = append(w.pool, farm.JobSpec{App: app, Runs: 17,
			Seed: splitmix(seed, uint64(i)), InputSeed: splitmix(seed, uint64(1000+i))})
	}
	shuffle(w.pool, seed)
	w.countJobs = 2 * len(w.pool)
	w.warm = farm.JobSpec{App: "fft", Runs: 17, Seed: splitmix(seed, 999)}
	return w
}

func shuffle[T any](xs []T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

func (w *serviceWorkload) name() string { return w.wname }

func (w *serviceWorkload) spec(k int) farm.JobSpec { return w.pool[k%len(w.pool)] }

// boot stands up a fresh stack and completes one discarded warm-up job.
func (w *serviceWorkload) boot() error {
	w.boots++
	st, err := bootStack(fmt.Sprintf(".bench_build/perfbench/state-%d-%d", os.Getpid(), w.boots), w.fleetMode, w.clients)
	if err != nil {
		return err
	}
	w.st = st
	ctx := context.Background()
	c := st.clients[0]
	job, err := c.Submit(ctx, w.warm)
	if err != nil {
		return err
	}
	for !job.State.Terminal() {
		time.Sleep(clientPoll)
		if job, err = c.Job(ctx, job.ID); err != nil {
			return err
		}
	}
	if job.State != farm.JobDone {
		return fmt.Errorf("warm-up job %s: %s %s", job.ID, job.State, job.Error)
	}
	return nil
}

// prepare does nothing up front: references are computed after the timed
// phases, for exactly the specs the farm executed.
func (w *serviceWorkload) prepare() error { return nil }

// run scrapes /metrics around the timed phase: the scrapes must lint, and
// the store must report no failed writes in between.
func (w *serviceWorkload) run(deadline time.Time, tr *tracer) *phase {
	before := w.scrapeOrFail()
	ph, _ := w.drive(deadline, 0, tr)
	after := w.scrapeOrFail()
	if n := delta(before, after, "checkfarm_store_errors_total"); n != 0 {
		w.failures = append(w.failures, fmt.Sprintf("/metrics: %.0f store errors in the timed phase", n))
	}
	if tr != nil {
		w.tbBefore, w.tbAfter = before, after
	}
	return ph
}

func (w *serviceWorkload) count(tr *tracer) (*phase, error) {
	before, err := scrapeMetrics(context.Background(), w.st.clients[0].Client)
	if err != nil {
		return nil, err
	}
	ph, jobs := w.drive(time.Time{}, w.countJobs, tr)
	after, err := scrapeMetrics(context.Background(), w.st.clients[0].Client)
	if err != nil {
		return nil, err
	}
	w.cntJobs, w.cntBefore, w.cntAfter = jobs, before, after
	return ph, nil
}

// scrapeOrFail scrapes /metrics, recording a failure when that fails.
func (w *serviceWorkload) scrapeOrFail() scrape {
	s, err := scrapeMetrics(context.Background(), w.st.clients[0].Client)
	if err != nil {
		w.failures = append(w.failures, fmt.Sprintf("/metrics: %v", err))
	}
	return s
}

// drive runs the closed loop. With limit > 0 it submits jobs 0..limit-1;
// otherwise it submits until deadline. It waits for every job, then
// measures over whole passes of the pool — the jobs before the last
// complete pass — so every window holds the same mix and every measured job
// had a full queue behind it.
func (w *serviceWorkload) drive(deadline time.Time, limit int, tr *tracer) (*phase, []*jobOutcome) {
	ph := &phase{runTail: w.runTail, jobTail: w.jobTail}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		done     []*jobOutcome
		wg       sync.WaitGroup
		ms0, ms1 runtime.MemStats
	)
	emit := func(o *jobOutcome) {
		mu.Lock()
		done = append(done, o)
		if len(done) == peakPasses*len(w.pool) {
			ph.peakRSS = peakRSSMB()
		}
		mu.Unlock()
	}
	requests := func() (n int64) {
		for _, c := range w.st.clients {
			n += c.requests.Load()
		}
		return
	}
	req0 := requests()
	track := startCPUTrack()
	runtime.ReadMemStats(&ms0)
	ph.start = time.Now()
	for _, c := range w.st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.client(c, &next, deadline, limit, tr, emit)
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	ph.end = time.Now()
	track.close()
	if ph.peakRSS == 0 {
		ph.peakRSS = peakRSSMB()
	}
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ph.requests = requests() - req0
	counted := len(done)
	if limit == 0 && counted >= len(w.pool) {
		counted -= counted % len(w.pool)
		ph.end = ph.start
	}
	passEnd := make([]time.Time, counted/len(w.pool))
	passRuns := make([]int, len(passEnd))
	for _, o := range done {
		ph.attempted++
		if o.err != nil {
			w.failures = append(w.failures, fmt.Sprintf("job %d (%s %s): %v", o.k, o.spec.App, o.id, o.err))
			continue
		}
		w.outcomes = append(w.outcomes, o)
		ph.allocRuns += o.runs
		if o.k >= counted {
			continue
		}
		j := o.job
		if limit == 0 && j.Finished.After(ph.end) {
			ph.end = j.Finished
		}
		if p := o.k / len(w.pool); p < len(passEnd) {
			passRuns[p] += o.runs
			if j.Finished.After(passEnd[p]) {
				passEnd[p] = j.Finished
			}
		}
		ph.runs += o.runs
		g := o.k % len(w.pool)
		sub, start, fin := track.at(j.Submitted), track.at(j.Started), track.at(j.Finished)
		ph.jobMs = append(ph.jobMs, sample{g, ms(fin - sub)})
		ph.jobWallMs = append(ph.jobWallMs, sample{g, ms(j.Finished.Sub(j.Submitted))})
		ph.queueMs = append(ph.queueMs, ms(start-sub))
		ph.serviceMs = append(ph.serviceMs, ms(fin-start))
		ph.runMs = append(ph.runMs, sample{g, ms(fin-start) / float64(o.runs)})
	}
	ph.cpuStart, ph.cpuEnd = track.at(ph.start), track.at(ph.end)
	prev := ph.cpuStart
	for p, end := range passEnd {
		c := track.at(end)
		ph.passRates = append(ph.passRates, float64(passRuns[p])/(c-prev).Seconds())
		prev = c
	}
	return ph, done
}

// client keeps depth jobs outstanding on one connection. The server runs
// jobs in submission order, so it only ever polls its oldest job.
func (w *serviceWorkload) client(c *client, next *atomic.Int64, deadline time.Time, limit int, tr *tracer, emit func(*jobOutcome)) {
	ctx := context.Background()
	type pending struct {
		o           *jobOutcome
		trace, root int64
		t0          time.Time
	}
	var out []pending
	for {
		for len(out) < w.depth && (limit > 0 || time.Now().Before(deadline)) {
			k := int(next.Add(1) - 1)
			if limit > 0 && k >= limit {
				break
			}
			p := pending{o: &jobOutcome{k: k, spec: w.spec(k)}, trace: tr.newID(), root: tr.newID(), t0: time.Now()}
			job, err := c.Submit(ctx, p.o.spec)
			tr.record(p.trace, 0, p.root, "farm.Client.Submit", p.t0, time.Now())
			if err != nil {
				p.o.err = err
				emit(p.o)
				continue
			}
			p.o.id = job.ID
			out = append(out, p)
		}
		if len(out) == 0 {
			return
		}
		p := out[0]
		s := time.Now()
		job, err := c.Job(ctx, p.o.id)
		tr.record(p.trace, 0, p.root, "farm.Client.Job", s, time.Now())
		if err == nil && !job.State.Terminal() {
			time.Sleep(clientPoll)
			continue
		}
		out = out[1:]
		if err == nil && job.State != farm.JobDone {
			err = fmt.Errorf("job %s: %s", job.State, job.Error)
		}
		if err != nil {
			p.o.err = err
			emit(p.o)
			continue
		}
		p.o.job = job
		s = time.Now()
		rep, err := c.Report(ctx, job.ID)
		e := time.Now()
		tr.record(p.trace, 0, p.root, "farm.Client.Report", s, e)
		tr.record(p.trace, 0, p.root, "farm.job.queue", job.Submitted, job.Started)
		tr.record(p.trace, 0, p.root, "farm.job.service", job.Started, job.Finished)
		tr.record(p.trace, p.root, 0, "farm.job", p.t0, e)
		if err != nil {
			p.o.err = err
			emit(p.o)
			continue
		}
		p.o.runs = rep.Runs
		p.o.explored = rep.Explore
		b, _ := json.Marshal(rep)
		p.o.repSum = sha256.Sum256(b)
		emit(p.o)
	}
}

// finish computes a reference per distinct executed spec with the
// library's sequential path, then requires every job's report and hash log
// to be byte-identical to it.
func (w *serviceWorkload) finish(res *result) {
	for _, f := range w.failures {
		res.fail("%s", f)
	}
	w.failures = nil
	if w.refs == nil {
		w.refs = map[string]*reference{}
	}
	ctx := context.Background()
	c := w.st.clients[0]
	for _, o := range w.outcomes {
		ref, err := w.reference(o.spec)
		if err != nil {
			res.fail("reference for %s: %v", o.spec.App, err)
			continue
		}
		if o.repSum != ref.repSum {
			res.fail("job %s (%s): report differs from the library report", o.id, o.spec.App)
			continue
		}
		log, err := c.HashLog(ctx, o.id)
		if err != nil {
			res.fail("job %s hash log: %v", o.id, err)
			continue
		}
		if sha256.Sum256([]byte(log)) != ref.logSum {
			res.fail("job %s (%s): hash log differs from the reference", o.id, o.spec.App)
		}
	}
	w.outcomes = nil
}

func (w *serviceWorkload) reference(spec farm.JobSpec) (*reference, error) {
	key, _ := json.Marshal(spec)
	if ref := w.refs[string(key)]; ref != nil {
		return ref, nil
	}
	ref, err := computeReference(spec)
	if err != nil {
		return nil, err
	}
	w.refs[string(key)] = ref
	return ref, nil
}

// layers fills the per-layer metrics from the count phase. Every run the
// server executes reports its counters to /metrics (farm.Metrics.
// observeRun); over the count phase those must equal the reference runs'
// sums. On farm-mixed the server executes every run, so the simulator
// counts that /metrics carries are taken from it; the rest (SchedOps, the
// load/store split of fast-window misses, elided and rounded stores,
// ignored-word checks) come from the reference runs. On fleet-replay the
// server executes only each job's recording run and the workers the
// replays, whose counters reach no /metrics, so all simulator counts come
// from the reference and the check covers the recording runs.
func (w *serviceWorkload) layers(res *result, cnt, tb *phase) {
	var runs, served []*sim.Result
	var jobs, jobRuns, found, foundAt float64
	for _, o := range w.cntJobs {
		if o.err != nil {
			continue
		}
		ref, err := w.reference(o.spec)
		if err != nil {
			res.fail("reference for %s: %v", o.spec.App, err)
			continue
		}
		runs = append(runs, ref.runs...)
		if w.fleetMode {
			served = append(served, ref.runs[0])
		} else {
			served = append(served, ref.runs...)
		}
		jobs++
		jobRuns += float64(o.runs)
		if o.explored != nil && o.explored.Found {
			found++
			foundAt += float64(o.explored.DivergedRun)
		}
	}
	simLayers(res, runs)
	b, a := w.cntBefore, w.cntAfter
	got := map[string]float64{}
	for _, c := range farmCounters(served) {
		got[c.name] = delta(b, a, c.name)
		if got[c.name] != c.want {
			res.fail("/metrics %s grew by %.0f over the count phase, the reference runs give %.0f", c.name, got[c.name], c.want)
		}
	}
	if !w.fleetMode {
		n := got["checkfarm_runs_executed_total"]
		res.metric("mhm.hashed_stores_per_run", "count", ratio(got["instantcheck_stores_hashed_total"], n))
		res.metric("mhm.drained_words_per_run", "count", ratio(got["instantcheck_storebuffer_drained_words_total"], n))
		res.metric("mhm.flushes_per_run", "count", ratio(got["instantcheck_storebuffer_flushes_total"], n))
		res.metric("sim.checkpoints_per_run", "count", ratio(got["instantcheck_checkpoints_total"], n))
		res.metric("sim.checkpoint_words_per_run", "count", ratio(got["instantcheck_checkpoint_words_total"], n))
		res.metric("sim.traverse_dirty_ratio", "ratio", ratio(got["instantcheck_traverse_dirty_pages_total"], got["instantcheck_traverse_live_pages_total"]))
		res.metric("sim.traverse_runs_hashed_per_run", "count", ratio(got["instantcheck_traverse_runs_hashed_total"], n))
		res.metric("sim.traverse_sharded_ratio", "ratio", ratio(got["instantcheck_traverse_sharded_sweeps_total"], got["instantcheck_checkpoints_total"]))
	}
	res.metric("farm.queue_ms", "ms", median(tb.queueMs))
	res.metric("farm.service_ms", "ms", median(tb.serviceMs))
	res.metric("farm.run_ms_mean", "ms", 1000*ratio(delta(w.tbBefore, w.tbAfter, "checkfarm_run_duration_seconds_sum"),
		delta(w.tbBefore, w.tbAfter, "checkfarm_run_duration_seconds_count")))
	res.metric("farm.store_appends_per_run", "count", ratio(delta(b, a, "checkfarm_store_appends_total"), jobRuns))
	res.metric("farm.store_bytes_per_run", "bytes", ratio(delta(b, a, "checkfarm_store_append_bytes_total"), jobRuns))
	res.metric("farm.http_requests_per_job", "count", ratio(float64(cnt.requests), jobs))
	detRuns := delta(b, a, "checkfarm_detection_runs_total")
	res.metric("racefilter.detection_runs_per_job", "count", ratio(detRuns, jobs))
	res.metric("racefilter.events_per_detection_run", "count", ratio(delta(b, a, "instantcheck_detection_events_total"), detRuns))
	res.metric("explore.runs_to_find", "count", ratio(foundAt, found))
	hits, misses := delta(b, a, "checkfleet_blob_fetch_hits_total"), delta(b, a, "checkfleet_blob_fetch_misses_total")
	records := delta(b, a, "checkfleet_appendback_records_total")
	res.metric("fleet.leases_per_job", "count", ratio(delta(b, a, "checkfleet_shards_leased_total"), jobs))
	res.metric("fleet.appendback_bytes_per_run", "bytes", ratio(delta(b, a, "checkfleet_appendback_bytes_total"), records))
	res.metric("fleet.blob_hit_ratio", "ratio", ratio(hits, hits+misses))
	res.metric("fleet.wasted_runs", "ratio", ratio(delta(b, a, "checkfleet_runs_requeued_total")+
		delta(b, a, "checkfleet_appendback_duplicates_total"), records))
	res.notef("store filesystem %s", w.st.fs)
	fillLayers(res)
}

func (w *serviceWorkload) shutdown() {
	if w.st != nil {
		w.st.close()
		w.st = nil
	}
}
