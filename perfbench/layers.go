package main

import (
	"context"
	"fmt"
	"strings"

	"instantcheck/internal/core"
	"instantcheck/internal/farm"
	"instantcheck/internal/obs"
	"instantcheck/internal/sim"
)

// layerNames lists every per-layer metric with its unit. Every traced run
// reports all of them; a layer the workload does not load reads 0.
var layerNames = [][2]string{
	{"sched.ops_per_run", "count"},
	{"mem.load_miss_ratio", "ratio"},
	{"mem.store_miss_ratio", "ratio"},
	{"mhm.hashed_stores_per_run", "count"},
	{"mhm.drained_words_per_run", "count"},
	{"mhm.flushes_per_run", "count"},
	{"mhm.absorb_ratio", "ratio"},
	{"fpround.rounded_stores_per_run", "count"},
	{"sim.checkpoints_per_run", "count"},
	{"sim.checkpoint_words_per_run", "count"},
	{"sim.ignored_word_checks_per_run", "count"},
	{"sim.traverse_dirty_ratio", "ratio"},
	{"sim.traverse_runs_hashed_per_run", "count"},
	{"sim.traverse_sharded_ratio", "ratio"},
	{"core.record_ms", "ms"},
	{"core.replay_ms", "ms"},
	{"core.assemble_ms", "ms"},
	{"farm.queue_ms", "ms"},
	{"farm.service_ms", "ms"},
	{"farm.run_ms_mean", "ms"},
	{"farm.store_appends_per_run", "count"},
	{"farm.store_bytes_per_run", "bytes"},
	{"farm.http_requests_per_job", "count"},
	{"racefilter.detection_runs_per_job", "count"},
	{"racefilter.events_per_detection_run", "count"},
	{"explore.runs_to_find", "count"},
	{"fleet.leases_per_job", "count"},
	{"fleet.appendback_bytes_per_run", "bytes"},
	{"fleet.blob_hit_ratio", "ratio"},
	{"fleet.wasted_runs", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"wall.runs_per_s", "1/s"},
	{"wall.job_ms_p50", "ms"},
}

// profBuckets are the CPU-profile buckets, named after the repo's modules
// plus the runtime's GC and coroutine switches, the wire (net/http,
// encoding/json, syscalls) and the rest.
var profBuckets = []string{
	"sched", "mem", "mhm", "ihash", "fpround", "sim", "apps", "replay", "core",
	"racefilter", "explore", "farm", "fleet", "obs", "runtime_coro", "runtime_gc",
	"wire", "other",
}

// fillLayers reports 0 for every per-layer metric the workload left unset.
func fillLayers(res *result) {
	for _, l := range layerNames {
		if _, ok := res.metrics[l[0]]; !ok {
			res.metric(l[0], l[1], 0)
		}
	}
}

// simLayers derives the simulator-side per-run counts from run results.
func simLayers(res *result, runs []*sim.Result) {
	var c sim.Counters
	var m struct{ hashed, drained, flushes, absorbed, rounded uint64 }
	for _, r := range runs {
		rc := &r.Counters
		c.SchedOps += rc.SchedOps
		c.Loads += rc.Loads
		c.Stores += rc.Stores
		c.FastLoadMisses += rc.FastLoadMisses
		c.FastStoreMisses += rc.FastStoreMisses
		c.Checkpoints += rc.Checkpoints
		c.CheckpointWords += rc.CheckpointWords
		c.IgnoredWordChecks += rc.IgnoredWordChecks
		c.TraverseDirtyPages += rc.TraverseDirtyPages
		c.TraverseLivePages += rc.TraverseLivePages
		c.TraverseRunsHashed += rc.TraverseRunsHashed
		c.TraverseShardedSweeps += rc.TraverseShardedSweeps
		m.hashed += r.MHMStats.HashedStores
		m.drained += r.MHMStats.DrainedWords
		m.flushes += r.MHMStats.BufferFlushes
		m.absorbed += r.MHMStats.CoalescedStores + r.MHMStats.ElidedWords
		m.rounded += r.MHMStats.RoundedStores
	}
	n := float64(len(runs))
	f := func(v uint64) float64 { return float64(v) }
	res.metric("sched.ops_per_run", "count", ratio(f(c.SchedOps), n))
	res.metric("mem.load_miss_ratio", "ratio", ratio(f(c.FastLoadMisses), f(c.Loads)))
	res.metric("mem.store_miss_ratio", "ratio", ratio(f(c.FastStoreMisses), f(c.Stores)))
	res.metric("mhm.hashed_stores_per_run", "count", ratio(f(m.hashed), n))
	res.metric("mhm.drained_words_per_run", "count", ratio(f(m.drained), n))
	res.metric("mhm.flushes_per_run", "count", ratio(f(m.flushes), n))
	res.metric("mhm.absorb_ratio", "ratio", ratio(f(m.absorbed), f(c.Stores)))
	res.metric("fpround.rounded_stores_per_run", "count", ratio(f(m.rounded), n))
	res.metric("sim.checkpoints_per_run", "count", ratio(f(c.Checkpoints), n))
	res.metric("sim.checkpoint_words_per_run", "count", ratio(f(c.CheckpointWords), n))
	res.metric("sim.ignored_word_checks_per_run", "count", ratio(f(c.IgnoredWordChecks), n))
	res.metric("sim.traverse_dirty_ratio", "ratio", ratio(f(c.TraverseDirtyPages), f(c.TraverseLivePages)))
	res.metric("sim.traverse_runs_hashed_per_run", "count", ratio(f(c.TraverseRunsHashed), n))
	res.metric("sim.traverse_sharded_ratio", "ratio", ratio(f(c.TraverseShardedSweeps), f(c.Checkpoints)))
}

// farmCounter is one /metrics counter that farm.Metrics.observeRun feeds
// from every run the server executes, with the value the given runs add up
// to.
type farmCounter struct {
	name string
	want float64
}

func farmCounters(runs []*sim.Result) []farmCounter {
	var c sim.Counters
	var hashed, hits, misses, detRuns, events uint64
	for _, r := range runs {
		rc := &r.Counters
		c.Stores += rc.Stores
		c.Checkpoints += rc.Checkpoints
		c.CheckpointWords += rc.CheckpointWords
		c.TraverseRunsHashed += rc.TraverseRunsHashed
		c.TraverseShardedSweeps += rc.TraverseShardedSweeps
		c.TraverseFullSweeps += rc.TraverseFullSweeps
		c.TraverseDeltaSweeps += rc.TraverseDeltaSweeps
		c.TraverseDirtyPages += rc.TraverseDirtyPages
		c.TraverseLivePages += rc.TraverseLivePages
		c.StoreBufferFlushes += rc.StoreBufferFlushes
		c.StoreBufferDrainedWords += rc.StoreBufferDrainedWords
		c.StoreBufferCoalesced += rc.StoreBufferCoalesced
		hashed += r.MHMStats.HashedStores
		// observeRun's split: misses include checker-internal zeroing
		// stores, so a run's hits are clamped at zero.
		m := rc.FastLoadMisses + rc.FastStoreMisses
		misses += m
		if acc := rc.Loads + rc.Stores; acc > m {
			hits += acc - m
		}
		if ev := rc.EventReads + rc.EventWrites; ev > 0 {
			detRuns++
			events += ev
		}
	}
	f := func(v uint64) float64 { return float64(v) }
	return []farmCounter{
		{"checkfarm_runs_executed_total", float64(len(runs))},
		{"instantcheck_stores_total", f(c.Stores)},
		{"instantcheck_stores_hashed_total", f(hashed)},
		{"instantcheck_checkpoints_total", f(c.Checkpoints)},
		{"instantcheck_checkpoint_words_total", f(c.CheckpointWords)},
		{"instantcheck_fastwindow_hits_total", f(hits)},
		{"instantcheck_fastwindow_misses_total", f(misses)},
		{"instantcheck_traverse_runs_hashed_total", f(c.TraverseRunsHashed)},
		{"instantcheck_traverse_sharded_sweeps_total", f(c.TraverseShardedSweeps)},
		{"instantcheck_traverse_full_sweeps_total", f(c.TraverseFullSweeps)},
		{"instantcheck_traverse_delta_sweeps_total", f(c.TraverseDeltaSweeps)},
		{"instantcheck_traverse_dirty_pages_total", f(c.TraverseDirtyPages)},
		{"instantcheck_traverse_live_pages_total", f(c.TraverseLivePages)},
		{"instantcheck_storebuffer_flushes_total", f(c.StoreBufferFlushes)},
		{"instantcheck_storebuffer_drained_words_total", f(c.StoreBufferDrainedWords)},
		{"instantcheck_storebuffer_coalesced_total", f(c.StoreBufferCoalesced)},
		{"checkfarm_detection_runs_total", f(detRuns)},
		{"instantcheck_detection_events_total", f(events)},
	}
}

// projectReport is the library report in the farm's wire shape, the form
// a farm or fleet job's report must equal byte for byte.
func projectReport(rep *core.Report) *farm.Report {
	out := &farm.Report{
		Program:        rep.Program,
		Runs:           len(rep.Runs),
		Points:         rep.Points(),
		DetPoints:      rep.DetPoints,
		NDetPoints:     rep.NDetPoints,
		Deterministic:  rep.Deterministic(),
		DetAtEnd:       rep.DetAtEnd,
		FirstNDetRun:   rep.FirstNDetRun,
		ShapeMismatch:  rep.ShapeMismatch,
		OutputDistinct: rep.OutputDistinct,
	}
	for _, s := range rep.Stats {
		out.Stats = append(out.Stats, farm.CheckpointStat{
			Ordinal:       s.Ordinal,
			Label:         s.Label,
			Distribution:  append([]int(nil), s.Distribution...),
			Deterministic: s.Deterministic,
		})
	}
	return out
}

// scrape is one parsed /metrics exposition, summed per sample name (labels
// folded together).
type scrape map[string]float64

// scrapeMetrics fetches /metrics through the farm client, lints it and
// parses it.
func scrapeMetrics(ctx context.Context, c *farm.Client) (scrape, error) {
	text, err := c.MetricsText(ctx)
	if err != nil {
		return nil, err
	}
	if err := obs.Lint(strings.NewReader(text)); err != nil {
		return nil, fmt.Errorf("/metrics lint: %w", err)
	}
	samples, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	out := scrape{}
	for _, s := range samples {
		if strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		out[s.Name] += s.Value
	}
	return out, nil
}

// delta returns after − before for one summed sample name.
func delta(before, after scrape, name string) float64 { return after[name] - before[name] }
