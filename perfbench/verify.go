package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"sort"

	"instantcheck/internal/explore"
	"instantcheck/internal/farm"
	"instantcheck/internal/sim"
)

// reference is what a farm or fleet job must reproduce: the digests of its
// report and hash log as the library's sequential path produces them, and
// the runs themselves for the per-layer counts.
type reference struct {
	repSum, logSum [32]byte
	runs           []*sim.Result
}

// computeReference runs a job spec through the library outside the farm:
// core.Campaign.Check with Parallelism 1 for check jobs, explore.Explore
// for explore jobs.
func computeReference(spec farm.JobSpec) (*reference, error) {
	camp, build, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	var rep *farm.Report
	runs := map[int]*sim.Result{}
	if spec.Kind == "explore" {
		opts := explore.Options{
			Threads:        camp.Threads,
			Scheme:         camp.Scheme,
			RoundFP:        camp.RoundFP,
			InputSeed:      camp.InputSeed,
			SwitchInterval: camp.SwitchInterval,
			ScheduleSeed:   camp.BaseScheduleSeed,
			Hasher:         camp.Hasher,
			Ignore:         camp.Ignore,
		}
		strat, err := explore.NewStrategy(spec.Strategy, opts, spec.PCTDepth)
		if err != nil {
			return nil, err
		}
		out, err := explore.Explore(build, opts, strat, camp.Runs, func(run int, res *sim.Result) error {
			runs[run] = res
			return nil
		})
		if err != nil {
			return nil, err
		}
		rep = &farm.Report{
			Program:       spec.App,
			Runs:          out.Runs,
			Deterministic: !out.Found,
			DetAtEnd:      !out.Found,
			FirstNDetRun:  out.DivergedRun,
			Explore: &farm.ExploreOutcome{
				Strategy:         out.Strategy,
				Budget:           out.Budget,
				Runs:             out.Runs,
				Found:            out.Found,
				DivergedRun:      out.DivergedRun,
				DistinctOutcomes: out.DistinctOutcomes,
				DistinctFinals:   out.DistinctFinals,
				Hits:             out.Hits,
			},
		}
	} else {
		camp.Parallelism = 1
		crep, err := camp.Check(build)
		if err != nil {
			return nil, err
		}
		rep = projectReport(crep)
		for i, r := range crep.Runs {
			runs[i] = r
		}
	}
	ref := &reference{}
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	ref.repSum = sha256.Sum256(b)
	idx := make([]int, 0, len(runs))
	for i := range runs {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var lines []farm.HashLogLine
	for _, i := range idx {
		ref.runs = append(ref.runs, runs[i])
		for _, cp := range runs[i].Checkpoints {
			lines = append(lines, farm.HashLogLine{Run: i, Ordinal: cp.Ordinal, Label: cp.Label, SH: cp.SH})
		}
	}
	var log bytes.Buffer
	if err := farm.WriteHashLog(&log, lines); err != nil {
		return nil, err
	}
	ref.logSum = sha256.Sum256(log.Bytes())
	return ref, nil
}
