// Package telemetry implements the simulator's observability subsystem: a
// per-simulation metrics registry (counters, gauges, power-of-two-bucketed
// histograms) with time-binned JSONL snapshotting, a flit-lifecycle tracer
// emitting Chrome trace-event JSON, and a live introspection HTTP endpoint
// (Prometheus text /metrics, /debug/pprof, a JSON run-progress document).
//
// Discovery follows the internal/verify pattern: telemetry is attached per
// Simulator (telemetry.Attach, stored in an opaque slot) and found by
// components at construction with the For* probe constructors, which return
// nil when telemetry is disabled. Every exported method of the probe types
// (ChannelProbe, RouterProbe, IfaceProbe, WorkloadProbe, Spans, Tracer,
// EngineProbe) returns at once on a nil receiver, so a hook without a guard
// cannot crash a run, and the disabled hot path costs one predictable branch
// and zero allocations — BenchmarkFigure5's allocation count is unchanged,
// which `make bench-guard` enforces.
//
// Telemetry is observation-only: it never touches the simulation PRNG or any
// component state, and trace sampling is a pure hash of message IDs, so
// enabling any part of it cannot change simulation results. Telemetry
// schedules no events: the run loop (core) pauses every shard at each bin
// boundary and calls Bin and Publish there, so every bin is an exact
// cut of the run whatever its partition.
package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"supersim/internal/sim"
)

// Options configures an attached Telemetry.
type Options struct {
	// BinTicks is the snapshot bin width in simulated ticks, the divisor of
	// each record's per-bin rate. The run loop takes a bin at every multiple
	// of it.
	BinTicks sim.Tick

	// SnapshotW, when non-nil, receives the JSONL snapshot stream, one bin
	// every BinTicks. If it also implements io.Closer, Close closes it.
	SnapshotW io.Writer

	// Tracer, when non-nil, receives flit-lifecycle events from the network
	// interfaces.
	Tracer *Tracer

	// Spans, when non-nil, records per-hop latency decompositions of sampled
	// messages; its histograms fold into this telemetry's registry.
	Spans *Spans
}

// Progress is the run-progress document: the run loop computes it at every
// bin boundary and once when the run ends, /progress serves it, and
// `supersim -monitor` prints it. Tick and Events are run-wide and exact at
// the boundary; the rates cover the wall time since the previous update.
type Progress struct {
	Tick      uint64  `json:"tick"`
	Events    uint64  `json:"events"`
	EventsSec float64 `json:"events_per_sec"`
	TicksSec  float64 `json:"ticks_per_sec"`
	Phase     string  `json:"phase"`
	Metrics   int     `json:"metrics"`
	TraceEvs  uint64  `json:"trace_events,omitempty"`
	SpanRecs  uint64  `json:"span_records,omitempty"`
	WallSec   float64 `json:"wall_sec"`
	HeapBytes uint64  `json:"heap_bytes"`      // heap objects, live and not yet swept
	LiveBytes uint64  `json:"heap_live_bytes"` // heap marked live by the last GC
	ETASec    float64 `json:"eta_sec,omitempty"`
}

// String renders the document as one progress line; the final update (phase
// "done") is labelled "finished".
func (p Progress) String() string {
	label := "progress"
	if p.Phase == "done" {
		label = "finished"
	}
	s := fmt.Sprintf("%s: tick=%d events=%d rate=%.0f/s ticks/s=%.0f heap=%.1fMiB live=%.1fMiB",
		label, p.Tick, p.Events, p.EventsSec, p.TicksSec,
		float64(p.HeapBytes)/(1<<20), float64(p.LiveBytes)/(1<<20))
	if p.ETASec > 0 {
		s += " eta=" + (time.Duration(p.ETASec * float64(time.Second))).Round(time.Second).String()
	}
	return s
}

// Telemetry is the per-simulation observability hub. Create one with Attach
// before building components; components find it with For.
type Telemetry struct {
	// The hub schedules no events; it still takes a construction-order key,
	// so the keys of the components built after it, which checkpoints
	// record, stay those of snapshot schema v1.
	sim.ComponentBase
	opts Options
	reg  *Registry

	enc *json.Encoder
	bw  *bufio.Writer
	wc  io.Closer

	first bool // next snapshot is the baseline bin

	mu sync.Mutex
	//sslint:nosnapshot — presentation copy of the run loop's latest progress
	prog Progress
	//sslint:nosnapshot — per-shard registry wiring, re-established when shards re-attach
	shardRegs []shardReg
}

// Attach creates a Telemetry and registers it on the simulator so that
// components built afterwards discover it. Attaching twice panics.
func Attach(s *sim.Simulator, opts Options) *Telemetry {
	if s.Telemetry() != nil {
		panic("telemetry: simulator already has telemetry attached")
	}
	t := &Telemetry{
		ComponentBase: sim.NewComponentBase(s, "telemetry"),
		opts:          opts,
		reg:           newRegistry(),
		first:         true,
	}
	if opts.SnapshotW != nil {
		t.bw = bufio.NewWriterSize(opts.SnapshotW, 1<<16)
		t.enc = json.NewEncoder(t.bw)
		if c, ok := opts.SnapshotW.(io.Closer); ok {
			t.wc = c
		}
	}
	if opts.Spans != nil {
		opts.Spans.reg = t.reg
	}
	s.SetTelemetry(t)
	return t
}

// For returns the simulator's attached Telemetry, or nil when disabled.
func For(s *sim.Simulator) *Telemetry {
	if t, ok := s.Telemetry().(*Telemetry); ok {
		return t
	}
	return nil
}

// Registry returns the metric registry.
func (t *Telemetry) Registry() *Registry { return t.reg }

// Tracer returns the attached flit tracer, or nil.
func (t *Telemetry) Tracer() *Tracer { return t.opts.Tracer }

// Spans returns the attached span recorder, or nil.
func (t *Telemetry) Spans() *Spans { return t.opts.Spans }

// SpansFor returns the simulator's span recorder, or nil when telemetry or
// span recording is disabled. Components call it once at construction, like
// the For* probe constructors; a nil recorder ignores every hook.
func SpansFor(s *sim.Simulator) *Spans {
	t := For(s)
	if t == nil {
		return nil
	}
	return t.opts.Spans
}

// Partition switches the tracer and span recorder into per-shard lane
// buffering across n shards. Core calls it once, before a parallel engine
// runs; recordings are tagged with partition-independent event stamps and
// merged back into the serial order by seal. Serial runs never call it and
// keep the direct streaming/apply paths.
func (t *Telemetry) Partition(n int) {
	if tr := t.opts.Tracer; tr != nil {
		tr.partition(n)
	}
	if sp := t.opts.Spans; sp != nil {
		sp.partition(n)
	}
}

// seal merges and drains the per-shard observation lanes in global stamp
// order. It must only run while no shard goroutines are executing — at a bin
// or checkpoint barrier (Bin, SaveState) or at the end of the run; the engine's
// RunUntil WaitGroup is the happens-before edge publishing the lanes.
func (t *Telemetry) seal() {
	if tr := t.opts.Tracer; tr != nil {
		tr.seal()
	}
	if sp := t.opts.Spans; sp != nil {
		sp.seal()
	}
}

// Bin closes the observation bin ending at tick: it seals the per-shard lanes
// (so span histograms match a serial run's at the boundary) and appends the
// bin to the JSONL stream. The run loop calls it with every shard paused at
// the bin boundary.
func (t *Telemetry) Bin(tick sim.Tick) error {
	t.seal()
	if t.enc == nil {
		return nil
	}
	if err := t.reg.snapshot(t.enc, uint64(tick), uint64(t.opts.BinTicks), t.first); err != nil {
		return streamErr("snapshot", err)
	}
	t.first = false
	return nil
}

// Publish completes p with the telemetry's own counts (metrics, trace events,
// span records), stores it as the document /progress serves, and returns it.
func (t *Telemetry) Publish(p Progress) Progress {
	p.Metrics = t.reg.Len()
	p.TraceEvs = t.opts.Tracer.Events()
	p.SpanRecs = t.opts.Spans.Records()
	t.mu.Lock()
	t.prog = p
	t.mu.Unlock()
	return p
}

// ProgressDoc returns a copy of the latest progress document.
func (t *Telemetry) ProgressDoc() Progress {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.prog
}

// Close takes the final bin at tick (so the tail of the run is never lost)
// and flushes and closes every output
// stream. The run loop calls it exactly once, even when the run fails — a
// truncated trace of a stalled run is exactly what a diagnosis needs. The
// error names each stream that failed.
func (t *Telemetry) Close(tick sim.Tick) error {
	snapErr := t.Bin(tick)
	if t.bw != nil && snapErr == nil {
		snapErr = streamErr("snapshot", t.bw.Flush())
	}
	if t.wc != nil {
		if err := streamErr("snapshot", t.wc.Close()); snapErr == nil {
			snapErr = err
		}
	}
	return errors.Join(snapErr,
		streamErr("trace", t.opts.Tracer.Close()),
		streamErr("spans", t.opts.Spans.Close()))
}

// streamErr names the output stream a write error came from; nil stays nil.
func streamErr(stream string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("telemetry: %s stream: %w", stream, err)
}
