package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"supersim/internal/sim"
	"supersim/internal/types"
)

// Tracer emits flit-lifecycle events in Chrome trace-event JSON (the format
// read by chrome://tracing and Perfetto). Each sampled flit becomes one async
// event pair: "b" (begin) when the flit enters the network at its source
// interface, "e" (end) when it is delivered at the destination. Events are
// keyed by id "msg.pkt.flit", grouped with pid = application index and
// tid = source terminal, with ts in simulated ticks (rendered as µs by the
// viewers).
//
// Sampling is per message, decided by a multiplicative hash of the message ID
// against a fixed threshold — never by the simulation PRNG — so enabling or
// resizing the trace cannot perturb simulation results, and all flits of a
// message are either all traced or all skipped (the viewer sees complete
// message lifetimes).
//
// Under a parallel engine (Partition), each shard records into its own lane:
// recording is an append of captured values (message/packet/flit IDs, not
// pointers — flits are pooled and recycled) tagged with the executing event's
// sim.Stamp. Lanes are merged in stamp order at seal time, which reproduces
// the serial emission order exactly (see mergeByStamp), so the rendered JSON
// is byte-identical to a serial run for any worker count.
type Tracer struct {
	mu        sync.Mutex
	w         *bufio.Writer
	c         io.Closer
	threshold uint64 // sample iff top 16 hash bits < threshold
	events    atomic.Uint64
	started   bool

	// lanes, when non-nil, switches the tracer from direct streaming to
	// per-shard buffered recording; lane k is written only by shard k's
	// goroutine and drained by seal between phases.
	lanes [][]traceEntry
}

// traceEntry is one buffered trace event: every field the renderer needs,
// captured by value at record time.
type traceEntry struct {
	stamp sim.Stamp
	ts    sim.Tick
	msg   uint64
	pkt   int
	flit  int
	app   int
	tid   int
	ph    byte // 'b' or 'e'
}

// NewTracer writes Chrome trace JSON to w, sampling the given fraction of
// messages (clamped to [0,1]; 1 traces everything). If w also implements
// io.Closer, Close closes it.
func NewTracer(w io.Writer, fraction float64) *Tracer {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	t := &Tracer{
		w:         bufio.NewWriterSize(w, 1<<16),
		threshold: uint64(fraction * 65536),
	}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// Sampled reports whether the message with the given ID is traced. The
// decision is a pure function of the ID, so both endpoints of a flit's
// journey agree without coordination.
func (t *Tracer) Sampled(msgID uint64) bool {
	if t == nil {
		return false
	}
	h := msgID * 0x9E3779B97F4A7C15 // Fibonacci hashing; top bits well mixed
	return h>>48 < t.threshold
}

// Events returns the number of trace events recorded so far.
func (t *Tracer) Events() uint64 {
	if t == nil {
		return 0
	}
	return t.events.Load()
}

// partition switches the tracer into per-shard lane recording across n
// shards. Called once, before the engine runs.
func (t *Tracer) partition(n int) {
	t.lanes = make([][]traceEntry, n)
}

// record captures one trace event. On a partitioned tracer the event is
// appended to the calling shard's lane with the executing event's stamp; on a
// serial tracer it streams straight to the writer.
func (t *Tracer) record(ph byte, s *sim.Simulator, now sim.Tick, f *types.Flit, tid int) {
	m := f.Pkt.Msg
	if t.lanes != nil {
		k := s.ShardID()
		t.lanes[k] = append(t.lanes[k], traceEntry{
			stamp: s.CurrentStamp(),
			ts:    now,
			msg:   m.ID,
			pkt:   f.Pkt.ID,
			flit:  f.ID,
			app:   m.App,
			tid:   tid,
			ph:    ph,
		})
		t.events.Add(1)
		return
	}
	t.emit(ph, now, m.ID, f.Pkt.ID, f.ID, m.App, tid)
	t.events.Add(1)
}

// emit renders one event to the JSON stream.
func (t *Tracer) emit(ph byte, ts sim.Tick, msg uint64, pkt, flit, app, tid int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		t.w.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
		t.started = true
	} else {
		t.w.WriteString(",\n")
	}
	fmt.Fprintf(t.w,
		`{"ph":%q,"cat":"flit","name":"flit","id":"%d.%d.%d","pid":%d,"tid":%d,"ts":%d}`,
		string(ph), msg, pkt, flit, app, tid, ts)
}

// seal drains the per-shard lanes into the JSON stream in global stamp order
// and resets them. It must only be called while no shard goroutines run (end
// of run, or a checkpoint barrier); sealing twice is harmless. Because the
// engine's checkpoint barriers partition stamps by time, sequential seals
// concatenate in correct global order.
func (t *Tracer) seal() {
	if t.lanes == nil {
		return
	}
	mergeByStamp(t.lanes, func(e *traceEntry) sim.Stamp { return e.stamp }, func(e *traceEntry) {
		t.emit(e.ph, e.ts, e.msg, e.pkt, e.flit, e.app, e.tid)
	})
	for k := range t.lanes {
		t.lanes[k] = t.lanes[k][:0]
	}
}

// FlitSent records a sampled flit entering the network at source terminal
// src. Callers check Sampled first; s is the calling component's simulator,
// which supplies the shard lane and merge stamp under a parallel engine.
func (t *Tracer) FlitSent(s *sim.Simulator, now sim.Tick, f *types.Flit, src int) {
	if t == nil {
		return
	}
	t.record('b', s, now, f, src)
}

// FlitReceived records a sampled flit delivered at its destination. The tid
// repeats the source terminal so begin/end pair on the same track.
func (t *Tracer) FlitReceived(s *sim.Simulator, now sim.Tick, f *types.Flit, src int) {
	if t == nil {
		return
	}
	t.record('e', s, now, f, src)
}

// Close terminates the JSON document, flushes, and closes the underlying
// writer when it is closable. Safe to call with no events emitted. Callers
// running under an engine seal first (Telemetry.Close does).
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		t.w.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	}
	t.w.WriteString("\n]}\n")
	err := t.w.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
