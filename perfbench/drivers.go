package main

import (
	"math/rand/v2"
	"runtime"
	"time"

	"supersim/internal/allocator"
	"supersim/internal/config"
	"supersim/internal/congestion"
	"supersim/internal/sim"
	"supersim/internal/types"
)

// Layer drivers call one layer's public functions in isolation, shaped by
// the workload they stand in for, and report host cost per operation.

// opCost is a driver's result: median nanoseconds and heap objects per
// operation over its repetitions.
type opCost struct{ ns, allocs float64 }

const driverReps = 5

// measureOps runs body(ops) driverReps times after one warm-up call and
// returns the median cost per operation.
func measureOps(ops int, body func(n int)) opCost {
	body(ops / 10)
	var ns, allocs []float64
	for i := 0; i < driverReps; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		body(ops)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	return opCost{ns: median(ns), allocs: median(allocs)}
}

// queueDriver measures the event queue with Schedule/RunUntil: pending
// events are kept queued, and each executed event schedules its successor
// at a delay drawn from the workload's latency mix.
func queueDriver(seed uint64, pending int, mix []sim.Tick) opCost {
	if pending < 1 {
		pending = 1
	}
	s := sim.NewSimulator(seed)
	rng := rand.New(rand.NewPCG(seed, 1))
	delays := make([]sim.Tick, 4096)
	var meanDelay float64
	for i := range delays {
		delays[i] = mix[rng.IntN(len(mix))]
		meanDelay += float64(delays[i]) / float64(len(delays))
	}
	k := 0
	var h sim.Handler
	h = sim.HandlerFunc(func(ev *sim.Event) {
		k++
		s.Schedule(h, ev.Time.Plus(delays[k&4095]), 0, nil)
	})
	for i := 0; i < pending; i++ {
		s.Schedule(h, sim.Time{Tick: delays[i&4095]}, 0, nil)
	}
	var horizon sim.Tick
	var executed uint64
	return measureOps(300000, func(n int) {
		// The queue holds `pending` events whose delays average meanDelay,
		// so n events span about n*meanDelay/pending ticks.
		target := executed + uint64(n)
		for executed < target {
			step := sim.Tick(float64(target-executed)*meanDelay/float64(pending)) + 1
			horizon += step
			executed += s.RunUntil(horizon)
		}
	})
}

// delayedDriver measures congestion.DelayedValue at latency 8: one op is a
// Set and a Get at the same, advancing tick.
func delayedDriver() opCost {
	dv := congestion.NewDelayedValue(8, 0)
	var t sim.Tick
	var sink float64
	c := measureOps(2000000, func(n int) {
		for i := 0; i < n; i++ {
			t++
			dv.Set(t, float64(t&15))
			sink += dv.Get(t)
		}
	})
	driverSink = sink
	return c
}

// poolDriver measures types.Pool recycling at the workload's message shape:
// one op is NewMessage followed by Release.
func poolDriver(msgFlits int) opCost {
	p := types.NewPool()
	var id uint64
	return measureOps(1000000, func(n int) {
		for i := 0; i < n; i++ {
			id++
			m := p.NewMessage(id, 0, 0, 1, msgFlits, msgFlits)
			p.Release(m)
		}
	})
}

// allocatorDriver measures allocator.Separable (input-first, round-robin
// arbiters) at the workload's router radix: one op is one Allocate over a
// pre-drawn request matrix where each client requests two resources.
func allocatorDriver(seed uint64, radix int) opCost {
	cfg := config.New()
	cfg.Set("type", "separable_input_first")
	rng := rand.New(rand.NewPCG(seed, 2))
	a := allocator.New(cfg, rng, radix, radix)
	const patterns = 64
	reqs := make([][][]bool, patterns)
	for p := range reqs {
		reqs[p] = make([][]bool, radix)
		for c := range reqs[p] {
			reqs[p][c] = make([]bool, radix)
			reqs[p][c][rng.IntN(radix)] = true
			reqs[p][c][rng.IntN(radix)] = true
		}
	}
	prio := make([]uint64, radix)
	grants := make([]int, radix)
	k := 0
	return measureOps(20000, func(n int) {
		for i := 0; i < n; i++ {
			k++
			a.Allocate(reqs[k%patterns], prio, grants)
		}
	})
}

// driverSink keeps driver results observable so loops are not elided.
var driverSink float64
