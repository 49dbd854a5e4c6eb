package core

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"time"

	"supersim/internal/sim"
	"supersim/internal/telemetry"
)

// Result summarizes a completed run.
type Result struct {
	Events  uint64   // non-daemon events executed
	EndTick sim.Tick // time of the last non-daemon event — the logical end
	Drained bool     // the workload reached the draining phase
}

// Monitor attaches fn to receive the run's progress at every observation bin
// (simulation.telemetry.bin ticks) and once when the run ends, with phase
// "done". It needs no telemetry and works on restored simulations; call it
// before Run.
func (sm *Simulation) Monitor(fn func(telemetry.Progress)) { sm.monitor = fn }

// Run executes the simulation until the event queue runs empty and verifies
// the workload protocol completed. It returns an error when the queue
// drained in an earlier phase, which indicates stalled traffic (for example
// a deadlock or a misconfigured application), or when a telemetry output
// stream fails.
func (sm *Simulation) Run() (Result, error) { return sm.run(0, nil) }

// RunCheckpointed executes the simulation to completion like Run, pausing at
// every multiple of `every` ticks while real work remains to hand a snapshot
// to sink. The checkpoint boundaries are invisible to the simulation — a
// checkpointed run's results are identical to an uninterrupted one's — and
// sink errors abort the run.
func (sm *Simulation) RunCheckpointed(every sim.Tick, sink func(tick sim.Tick, data []byte) error) (Result, error) {
	if every == 0 {
		return Result{}, fmt.Errorf("core: checkpoint interval must be positive")
	}
	return sm.run(every, sink)
}

// run is the one run loop. It pauses the whole simulation at every barrier
// tick B: each multiple of the checkpoint interval (when every > 0) and, when
// telemetry is on or a monitor is attached, each multiple of the observation
// bin. At B every shard has executed exactly the events before B, so what is
// read there does not depend on the partition. A barrier takes the
// checkpoint while work remains, then writes the telemetry bin and publishes
// progress. Without checkpoints, telemetry and a monitor the run takes no
// barriers. Telemetry streams are closed exactly once, even when the run
// fails, and their errors are returned.
func (sm *Simulation) run(every sim.Tick, sink func(sim.Tick, []byte) error) (res Result, err error) {
	var bin sim.Tick
	if sm.Telemetry != nil || sm.monitor != nil {
		bin = sm.bin
	}
	publish := sm.progress()
	var lastBin sim.Tick
	defer func() {
		events, end := sm.totals()
		if sm.Telemetry != nil {
			err = errors.Join(err, sm.Telemetry.Close(max(end.Tick, lastBin)))
		}
		publish(end.Tick, events, "done")
	}()

	for at := nextBarrier(sm.Sim.Now().Tick, every, bin); at != 0; at = nextBarrier(at+1, every, bin) {
		var stopped, quiesced bool
		if sm.engine != nil {
			sm.engine.RunUntil(at)
			// Settle cross-shard posts so the global state at the barrier is
			// complete: each becomes an event queued on its destination shard.
			sm.engine.DrainCross()
			stopped, quiesced = sm.engine.Stopped(), sm.engine.Quiesced()
		} else {
			sm.Sim.RunUntil(at)
			stopped, quiesced = sm.Sim.Stopped(), sm.Sim.PendingNonDaemon() == 0
		}
		if stopped {
			break
		}
		if every > 0 && at%every == 0 && !quiesced {
			data, err := sm.Snapshot(at)
			if err == nil {
				err = sink(at, data)
			}
			if err != nil {
				return Result{}, err
			}
		}
		if bin > 0 && at%bin == 0 {
			lastBin = at
			if sm.Telemetry != nil {
				if err := sm.Telemetry.Bin(at); err != nil {
					return Result{}, err
				}
			}
			if !quiesced {
				events, _ := sm.totals()
				publish(at, events, sm.Workload.Phase().String())
			}
		}
		if quiesced {
			break
		}
	}
	// The rest of the run. Serially this also executes trailing daemon
	// events; the engine deliberately does not chase them.
	if sm.engine != nil {
		sm.engine.RunUntil(^sim.Tick(0))
	} else {
		sm.Sim.Run()
	}
	events, end := sm.totals()
	return sm.verifyOutcome(events, end)
}

// nextBarrier returns the first tick at or after from that is a positive
// multiple of every or of bin (either may be 0, meaning none), or 0 when
// both are 0.
func nextBarrier(from, every, bin sim.Tick) sim.Tick {
	next := sim.Tick(0)
	for _, step := range []sim.Tick{every, bin} {
		if step == 0 {
			continue
		}
		at := max(step, (from+step-1)/step*step)
		if next == 0 || at < next {
			next = at
		}
	}
	return next
}

// totals returns the run-wide executed non-daemon events and the latest
// LastWork across the partition. A restored run seeds its totals on the host,
// so the sums are the same whatever the worker count.
func (sm *Simulation) totals() (events uint64, end sim.Time) {
	for _, s := range sm.sims() {
		events += s.Executed()
		if end.Before(s.LastWork()) {
			end = s.LastWork()
		}
	}
	return events, end
}

// progress returns the run loop's progress publisher: each call computes the
// document for the given tick, run-wide event total and phase, hands it to
// the telemetry (served at /progress) and to the monitor, and is a no-op when
// neither is attached. Rates cover the wall time since the previous call;
// heap figures come from runtime/metrics, which does not stop the world.
func (sm *Simulation) progress() func(tick sim.Tick, events uint64, phase string) {
	endTick := sim.Tick(sm.cfg.UIntOr("simulation.monitor_end_tick", 0))
	start := time.Now()
	lastWall, lastTick := start, sm.Sim.Now().Tick
	lastEvents, _ := sm.totals()
	heap := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}
	return func(tick sim.Tick, events uint64, phase string) {
		if sm.Telemetry == nil && sm.monitor == nil {
			return
		}
		wall := time.Now()
		metrics.Read(heap)
		p := telemetry.Progress{
			Tick:      uint64(tick),
			Events:    events,
			Phase:     phase,
			WallSec:   wall.Sub(start).Seconds(),
			HeapBytes: heap[0].Value.Uint64(),
			LiveBytes: heap[1].Value.Uint64(),
		}
		if secs := wall.Sub(lastWall).Seconds(); secs > 0 {
			p.EventsSec = (float64(events) - float64(lastEvents)) / secs
			p.TicksSec = (float64(tick) - float64(lastTick)) / secs
		}
		if phase != "done" && endTick > tick && p.TicksSec > 0 {
			p.ETASec = float64(endTick-tick) / p.TicksSec
		}
		lastWall, lastTick, lastEvents = wall, tick, events
		if sm.Telemetry != nil {
			p = sm.Telemetry.Publish(p)
		}
		if sm.monitor != nil {
			sm.monitor(p)
		}
	}
}
