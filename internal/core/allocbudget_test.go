package core

import (
	"runtime"
	"strings"
	"testing"

	"supersim/internal/config"
	"supersim/internal/sim"
)

// Steady-state allocation budget: simulating a flit must allocate nothing
// once the network is warm. Every golden case runs past an 8,000-tick
// warm-up, then the heap allocations of the next 8,000 ticks are divided by
// the flits retired in them. The measurement covers every layer a flit
// crosses (event queue, channels, interfaces, routers, routing algorithms,
// congestion sensors, workload, verify ledgers, and metrics when enabled),
// including helpers and interface calls no static rule could follow.
//
// The bound sits about 5x above what healthy cases show (at most ~0.011
// allocations per flit: event free lists, channel FIFOs and the message pool
// still growing toward their high-water marks) and 5x below the smallest
// real leak, one allocation per 4-flit golden message (0.25 per flit). When
// it fails, find the allocating site with
//
//	go test ./internal/core -run 'TestSteadyStateAllocBudget/<case>' \
//	    -memprofile mem.out -memprofilerate=1
//	go tool pprof -sample_index=alloc_objects -top mem.out
const (
	budgetWarmTicks = 8000
	budgetEndTicks  = 16000
	allocsPerFlit   = 0.05
)

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation allocates on its own.
var raceEnabled bool

func TestSteadyStateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	type variant struct {
		name      string
		workers   int
		telemetry bool
	}
	variants := []variant{
		{"workers_1", 1, false},
		{"workers_2", 2, false},
		{"telemetry", 1, true},
	}
	for _, gc := range goldenCases() {
		for _, v := range variants {
			t.Run(gc.name+"/"+v.name, func(t *testing.T) {
				// Keep traffic flowing through the whole measured window.
				doc := strings.Replace(gc.doc, `"sample_duration": 1500`, `"sample_duration": 20000`, 1)
				if doc == gc.doc {
					t.Fatal("golden doc has no sample_duration to extend")
				}
				cfg := config.MustParse(doc)
				if v.workers > 1 {
					cfg.Set("simulation.workers", uint64(v.workers))
				}
				if v.telemetry {
					cfg.Set("simulation.telemetry.enabled", true)
				}
				sm := Build(cfg)
				perFlit, flits := measureSteadyState(sm)
				if flits == 0 {
					t.Fatal("no flits retired in the measured window")
				}
				t.Logf("%.4f allocations per retired flit over %d flits", perFlit, flits)
				if perFlit > allocsPerFlit {
					t.Errorf("steady state allocates %.4f objects per retired flit, budget %.2f",
						perFlit, allocsPerFlit)
				}
			})
		}
	}
}

// measureSteadyState steps the simulation through the warm-up, then returns
// the heap allocations per flit retired over the measured window.
func measureSteadyState(sm *Simulation) (float64, uint64) {
	step := func(tick sim.Tick) {
		if sm.engine != nil {
			sm.engine.RunUntil(tick)
		} else {
			sm.Sim.RunUntil(tick)
		}
	}
	step(budgetWarmTicks)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, retired := ms.Mallocs, sm.Verify.Retired()
	step(budgetEndTicks)
	runtime.ReadMemStats(&ms)
	flits := sm.Verify.Retired() - retired
	if flits == 0 {
		return 0, 0
	}
	return float64(ms.Mallocs-mallocs) / float64(flits), flits
}
