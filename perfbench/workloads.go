package main

import (
	"supersim/internal/config"
	"supersim/internal/sim"
)

// workload is one benchmark input: a settings document built from a seed,
// plus the parameters the layer drivers reuse so each driver runs at the
// shape of the model it stands in for.
type workload struct {
	name    string
	why     string
	workers int    // simulation.workers; 1 is the serial path
	warmup  uint64 // Blast warmup_duration in ticks
	sample  uint64 // Blast sample_duration in ticks at the default length

	// queueMix is the schedule-ahead mix of the queue driver: the model's
	// configured latencies (core/channel periods, channel, crossbar, queue
	// and sensor latencies) in ticks.
	queueMix []sim.Tick
	radix    int // router radix, the allocator driver's clients and resources
	msgFlits int // message size, the pool driver's message shape

	settings func(seed, warmup, sample uint64) *config.Settings
}

// workloads is the benchmark's workload set. BENCHMARK.json lists the first
// two; the other two run by hand and in the self-test (NOTES.md says why).
var workloads = []workload{
	{
		name:     "fb_ugal_ioq",
		why:      "event-queue-bound: 1-flit messages on a 256-terminal flattened butterfly with IOQ routers and UGAL",
		workers:  1,
		warmup:   600,
		sample:   200,
		queueMix: []sim.Tick{1, 2, 2, 100, 100},
		radix:    31,
		msgFlits: 1,
		settings: flattenedButterfly,
	},
	{
		name:     "fb_ugal_ioq_w2",
		why:      "the same model on 2 workers: the only workload that runs the parallel engine",
		workers:  2,
		warmup:   600,
		sample:   200,
		queueMix: []sim.Tick{1, 2, 2, 100, 100},
		radix:    31,
		msgFlits: 1,
		settings: flattenedButterfly,
	},
	{
		name:     "torus_iq_m32",
		why:      "flit-bound: 32-flit messages on a 4-D torus with IQ routers; bypasses per-message and adaptive routing work",
		workers:  1,
		warmup:   100,
		sample:   50,
		queueMix: []sim.Tick{1, 1, 5, 25},
		radix:    9,
		msgFlits: 32,
		settings: torus,
	},
	{
		name:     "clos_oq_sense",
		why:      "the only OQ-router, uprouting and delayed-sensor workload, and the most allocation-heavy",
		workers:  1,
		warmup:   600,
		sample:   300,
		queueMix: []sim.Tick{1, 8, 50, 50},
		radix:    8,
		msgFlits: 1,
		settings: foldedClos,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// build returns the workload's settings document for a seed. A zero sample
// selects the default length.
func (w workload) build(seed, sample uint64) *config.Settings {
	if sample == 0 {
		sample = w.sample
	}
	cfg := w.settings(seed, w.warmup, sample)
	cfg.Set("simulation.workers", w.workers)
	return cfg
}

func setAll(cfg *config.Settings, kv map[string]any) *config.Settings {
	for k, v := range kv {
		cfg.Set(k, v)
	}
	return cfg
}

func blast(load float64, msgFlits int, warmup, sample uint64, traffic map[string]any) []any {
	return []any{map[string]any{
		"type":            "blast",
		"injection_rate":  load,
		"message_size":    msgFlits,
		"warmup_duration": warmup,
		"sample_duration": sample,
		"traffic":         traffic,
	}}
}

// flattenedButterfly is case study B at the reduced scale: a 16-router 1-D
// flattened butterfly with 16 terminals per router, IOQ routers with 2 VCs,
// UGAL with the port/both credit sensor, uniform random Blast at load 0.6.
func flattenedButterfly(seed, warmup, sample uint64) *config.Settings {
	cfg := setAll(config.New(), map[string]any{
		"simulation.seed":                              seed,
		"network.topology":                             "hyperx",
		"network.widths":                               []any{16},
		"network.concentration":                        16,
		"network.channel.latency":                      100,
		"network.channel.period":                       2,
		"network.injection.latency":                    2,
		"network.interface.receive_buffer_depth":       256,
		"network.router.architecture":                  "input_output_queued",
		"network.router.num_vcs":                       2,
		"network.router.speedup":                       2,
		"network.router.input_buffer_depth":            128,
		"network.router.output_queue_depth":            256,
		"network.router.crossbar_latency":              100,
		"network.router.congestion_sensor.type":        "credit",
		"network.router.congestion_sensor.granularity": "port",
		"network.router.congestion_sensor.source":      "both",
		"network.routing.algorithm":                    "ugal",
	})
	cfg.Set("workload.applications", blast(0.6, 1, warmup, sample,
		map[string]any{"type": "uniform_random"}))
	return cfg
}

// torus is case study C: a 4x4x4x4 torus with one terminal per router, IQ
// routers with 4 VCs and flit-buffer flow control, dimension-order routing,
// uniform random Blast of 32-flit messages at load 0.5.
func torus(seed, warmup, sample uint64) *config.Settings {
	cfg := setAll(config.New(), map[string]any{
		"simulation.seed":                        seed,
		"network.topology":                       "torus",
		"network.dimensions":                     []any{4, 4, 4, 4},
		"network.concentration":                  1,
		"network.channel.latency":                5,
		"network.channel.period":                 1,
		"network.injection.latency":              1,
		"network.interface.receive_buffer_depth": 256,
		"network.router.architecture":            "input_queued",
		"network.router.num_vcs":                 4,
		"network.router.input_buffer_depth":      128,
		"network.router.crossbar_latency":        25,
		"network.router.flow_control":            "flit_buffer",
		"network.routing.algorithm":              "dimension_order",
	})
	cfg.Set("workload.applications", blast(0.5, 32, warmup, sample,
		map[string]any{"type": "uniform_random"}))
	return cfg
}

// foldedClos is case study A: a 3-level folded Clos of half-radix 4 (64
// terminals), OQ routers with 64-flit output queues, adaptive uprouting and
// a port/output credit sensor at latency 8, cross_subtree Blast at load 0.5.
func foldedClos(seed, warmup, sample uint64) *config.Settings {
	cfg := setAll(config.New(), map[string]any{
		"simulation.seed":                              seed,
		"network.topology":                             "folded_clos",
		"network.half_radix":                           4,
		"network.levels":                               3,
		"network.channel.latency":                      50,
		"network.channel.period":                       1,
		"network.injection.latency":                    1,
		"network.interface.receive_buffer_depth":       256,
		"network.router.architecture":                  "output_queued",
		"network.router.num_vcs":                       1,
		"network.router.input_buffer_depth":            150,
		"network.router.queue_latency":                 50,
		"network.router.output_queue_depth":            64,
		"network.router.congestion_sensor.type":        "credit",
		"network.router.congestion_sensor.granularity": "port",
		"network.router.congestion_sensor.source":      "output",
		"network.router.congestion_sensor.latency":     8,
		"network.routing.algorithm":                    "adaptive_uprouting",
	})
	cfg.Set("workload.applications", blast(0.5, 1, warmup, sample,
		map[string]any{"type": "cross_subtree", "group_size": 16}))
	return cfg
}
