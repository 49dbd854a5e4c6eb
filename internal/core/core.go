// Package core assembles complete simulations from JSON settings: it builds
// the simulator, the network (topology, routers, interfaces, channels) and
// the workload (applications, terminals), runs the four-phase protocol to
// completion, and reports the outcome.
//
// The top level of any network simulation holds two blocks — "network" and
// "workload" — plus an optional "simulation" block for the seed:
//
//	{
//	  "simulation": {"seed": 1},
//	  "network":    {"topology": "...", "router": {...}, ...},
//	  "workload":   {"applications": [{"type": "blast", ...}]}
//	}
package core

import (
	"fmt"
	"io"
	"os"

	"supersim/internal/config"
	"supersim/internal/diagnose"
	"supersim/internal/network"
	"supersim/internal/sim"
	"supersim/internal/telemetry"
	"supersim/internal/verify"
	"supersim/internal/workload"

	// Component model registrations: each topology and application model
	// self-registers from its own package, so assembling a simulator is just
	// importing the models it should know about.
	_ "supersim/internal/network/dragonfly"
	_ "supersim/internal/network/foldedclos"
	_ "supersim/internal/network/hyperx"
	_ "supersim/internal/network/parkinglot"
	_ "supersim/internal/network/torus"
	_ "supersim/internal/workload/apps"
)

// Simulation is a fully assembled simulation.
type Simulation struct {
	Sim       *sim.Simulator
	Net       network.Network
	Workload  *workload.Workload
	Verify    *verify.Verifier     // nil unless simulation.verify.enabled
	Telemetry *telemetry.Telemetry // nil unless simulation.telemetry.enabled

	// Shards is the parallel partition (simulation.workers > 1), or nil for
	// a serial simulation. Shard 0 is the host shard.
	Shards []*Shard
	engine *sim.Engine

	// cfg is the settings document the simulation was built from, retained so
	// checkpoints can embed it (a snapshot restores by rebuilding the identical
	// component graph and overwriting its state).
	cfg *config.Settings

	// bin is the observation bin (simulation.telemetry.bin); monitor, when
	// set, receives the run's progress at every bin. See run.
	bin sim.Tick
	//sslint:nosnapshot — host-side progress sink, attached by the driver after Build or Restore
	monitor func(telemetry.Progress)
}

// Config returns the settings document the simulation was built from. For a
// restored simulation this is the snapshot's embedded document (plus any
// worker-count override), so drivers can read effective settings either way.
func (sm *Simulation) Config() *config.Settings { return sm.cfg }

// Build assembles a simulation from the full settings document. It panics
// (with *config.Error where applicable) on invalid settings; use BuildE for
// an error-returning wrapper.
func Build(cfg *config.Settings) *Simulation {
	seed := cfg.UIntOr("simulation.seed", 1)
	s := sim.NewSimulator(seed)
	// Opt-in invariant verification: "simulation": {"verify": {"enabled": true}}
	// attaches the runtime checker before any component is constructed, so
	// every interface, channel, and router picks it up via verify.For.
	var v *verify.Verifier
	if cfg.BoolOr("simulation.verify.enabled", false) {
		v = verify.Attach(s, verify.Options{
			WatchdogEpoch: sim.Tick(cfg.UIntOr("simulation.verify.watchdog_epoch", 100000)),
		})
	}
	// Opt-in telemetry: "simulation": {"telemetry": {"enabled": true, ...}}
	// attaches the metrics/tracing subsystem before components are built, so
	// channels, routers, interfaces and the workload pick up their probes via
	// the telemetry.For* constructors. Like verification it is observation-
	// only: traffic results are identical with it on or off.
	bin := sim.Tick(cfg.UIntOr("simulation.telemetry.bin", 1000))
	var tel *telemetry.Telemetry
	if cfg.BoolOr("simulation.telemetry.enabled", false) {
		opts := telemetry.Options{BinTicks: bin}
		if path := cfg.StringOr("simulation.telemetry.snapshot_file", ""); path != "" {
			f, err := os.Create(path)
			if err != nil {
				panic(fmt.Sprintf("core: telemetry snapshot file: %v", err))
			}
			opts.SnapshotW = f
		}
		if path := cfg.StringOr("simulation.telemetry.trace_file", ""); path != "" {
			f, err := os.Create(path)
			if err != nil {
				panic(fmt.Sprintf("core: telemetry trace file: %v", err))
			}
			opts.Tracer = telemetry.NewTracer(f, cfg.FloatOr("simulation.telemetry.trace_sample", 1.0))
		}
		// Span recording: "spans_file" streams per-message latency
		// decompositions as JSONL; "spans_sample" alone folds sampled spans
		// into the registry histograms without a stream (the critical-path
		// report still reaches snapshots and Prometheus).
		spansPath := cfg.StringOr("simulation.telemetry.spans_file", "")
		spansSample := cfg.FloatOr("simulation.telemetry.spans_sample", 0)
		if spansPath != "" && !cfg.Has("simulation.telemetry.spans_sample") {
			spansSample = 1.0
		}
		if spansPath != "" || spansSample > 0 {
			var w io.Writer
			if spansPath != "" {
				f, err := os.Create(spansPath)
				if err != nil {
					panic(fmt.Sprintf("core: telemetry spans file: %v", err))
				}
				w = f
			}
			opts.Spans = telemetry.NewSpans(w, spansSample)
		}
		tel = telemetry.Attach(s, opts)
	}
	net := network.New(s, cfg.Sub("network"))
	if v != nil {
		// With the network built the watchdog can do better than an occupancy
		// dump: the diagnostician walks head-of-line dependency chains and
		// names the resource each blocked flit waits on.
		v.SetDiagnoser(diagnose.New(net).Report)
	}
	w := workload.New(s, cfg.Sub("workload"), net)
	if v != nil {
		// The workload's message pool reports obtain/release so stale pooled
		// pointers (aliasing bugs) are caught by the generation sentinel.
		w.Pool().SetObserver(v)
	}
	sm := &Simulation{Sim: s, Net: net, Workload: w, Verify: v, Telemetry: tel, cfg: cfg, bin: bin}
	// Opt-in parallel execution: "simulation": {"workers": N} partitions the
	// routers across N-1 shards coordinated by the conservative engine, with
	// results byte-identical to the serial path (workers <= 1, the default).
	if workers := int(cfg.UIntOr("simulation.workers", 1)); workers > 1 {
		attachParallel(sm, workers)
	}
	return sm
}

// BuildE is Build with panics recovered into errors.
func BuildE(cfg *config.Settings) (sm *Simulation, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: build failed: %v", r)
		}
	}()
	return Build(cfg), nil
}

// verifyOutcome assembles the Result and runs the post-drain checks.
func (sm *Simulation) verifyOutcome(events uint64, end sim.Time) (Result, error) {
	res := Result{
		Events:  events,
		EndTick: end.Tick,
		Drained: sm.Workload.Phase() == workload.Draining,
	}
	if !res.Drained {
		return res, fmt.Errorf("core: event queue drained during %v phase — traffic stalled",
			sm.Workload.Phase())
	}
	// Post-drain quiescence: every router and interface must be completely
	// idle — empty queues, no held allocations, all credits returned. Any
	// leak panics with component context.
	for i := 0; i < sm.Net.NumRouters(); i++ {
		sm.Net.Router(i).VerifyIdle()
	}
	for i := 0; i < sm.Net.NumTerminals(); i++ {
		sm.Net.Interface(i).VerifyIdle()
	}
	sm.Verify.VerifyDrained()
	return res, nil
}
