package apps

import (
	"testing"

	"instantcheck/internal/core"
	"instantcheck/internal/sim"
)

// TestFastWindowMissRatios pins the memory engine's fast-window table on the
// three apps whose accesses used to miss a single window most of the time:
// one recorded run each, 8 threads, HW-InstantCheck_Inc, fixed seeds. The
// counts are exact for a given schedule, so the bounds only need headroom
// for deliberate changes to the apps or the scheduler.
//
// Counts with the 64-slot page-indexed table and same-kind widening
// (misses / accesses):
//
//	ocean          loads 51263/2671364 (0.019)   stores 362/684490 (0.0005)
//	streamcluster  loads 72897/1851033 (0.039)   stores 233204/1047674 (0.223)
//	sphinx3        loads 213889/402182 (0.532)   stores 8209/263820 (0.031)
//
// A single last-resolved window read 0.52/0.92, 0.68/0.98 and 0.76/0.48;
// the table without same-kind widening read 0.029/0.056, 0.039/0.223 and
// 0.74/0.090. Either regression fails at least one bound.
func TestFastWindowMissRatios(t *testing.T) {
	for _, c := range []struct {
		app               string
		maxLoad, maxStore float64
	}{
		{"ocean", 0.05, 0.02},
		{"streamcluster", 0.08, 0.30},
		{"sphinx3", 0.65, 0.06},
	} {
		camp := core.Campaign{Runs: 1, Threads: 8, Scheme: sim.HWInc, BaseScheduleSeed: 1, InputSeed: 1}
		rep, err := camp.Check(ByName(c.app).Builder(Options{Threads: 8}))
		if err != nil {
			t.Fatalf("%s: %v", c.app, err)
		}
		n := rep.Runs[0].Counters
		load := float64(n.FastLoadMisses) / float64(n.Loads)
		store := float64(n.FastStoreMisses) / float64(n.Stores)
		t.Logf("%s: loads %d/%d (%.4f), stores %d/%d (%.4f)",
			c.app, n.FastLoadMisses, n.Loads, load, n.FastStoreMisses, n.Stores, store)
		if load > c.maxLoad {
			t.Errorf("%s: fast-window load miss ratio %.4f, want <= %.2f", c.app, load, c.maxLoad)
		}
		if store > c.maxStore {
			t.Errorf("%s: fast-window store miss ratio %.4f, want <= %.2f", c.app, store, c.maxStore)
		}
	}
}
