package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/sim"
	"supersim/internal/snapshot"
)

func populatedRegistry() *Registry {
	r := newRegistry()
	r.Counter("flits_routed", "r0", -1, 2.0).Add(5)
	r.Gauge("vc_occupancy", "r0", 1).Set(-3)
	h := r.Histogram("msg_latency", "r0", -1)
	h.Observe(1)
	h.Observe(1)
	h.Observe(500)
	return r
}

func saveRegistry(r *Registry) []byte {
	e := snapshot.NewEncoder()
	r.SaveState(e)
	return e.Bytes()
}

func TestRegistryStateRoundTrip(t *testing.T) {
	data := saveRegistry(populatedRegistry())

	// Restore into a registry where one metric pre-exists (the
	// construction-time case) and the others are created by the load (the
	// dynamically-registered case).
	got := newRegistry()
	pre := got.Counter("flits_routed", "r0", -1, 2.0)
	d := snapshot.NewDecoder(data)
	if err := got.LoadState(d); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if pre.Load() != 5 {
		t.Fatalf("pre-registered counter = %d, want 5", pre.Load())
	}
	if g := got.Gauge("vc_occupancy", "r0", 1); g.Load() != -3 {
		t.Fatalf("gauge = %d, want -3", g.Load())
	}
	if h := got.Histogram("msg_latency", "r0", -1); h.Count() != 3 || h.Sum() != 502 {
		t.Fatalf("histogram count %d sum %d", h.Count(), h.Sum())
	}
	if !bytes.Equal(saveRegistry(got), data) {
		t.Fatal("re-saved registry state is not byte-identical")
	}
}

func TestRegistryLoadRejectsCorruption(t *testing.T) {
	load := func(r *Registry, fn func(e *snapshot.Encoder)) error {
		e := snapshot.NewEncoder()
		fn(e)
		return r.LoadState(snapshot.NewDecoder(e.Bytes()))
	}

	clash := newRegistry()
	clash.Gauge("flits_routed", "r0", -1)
	if err := clash.LoadState(snapshot.NewDecoder(saveRegistry(populatedRegistry()))); err == nil ||
		!strings.Contains(err.Error(), "in the snapshot") {
		t.Fatalf("kind clash: err = %v", err)
	}

	if err := load(newRegistry(), func(e *snapshot.Encoder) {
		e.Int(1)
		e.Str("m")
		e.Str("c")
		e.Int(-1)
		e.Int(99) // invalid kind
		e.F64(0)
	}); err == nil || !strings.Contains(err.Error(), "invalid kind") {
		t.Fatalf("invalid kind: err = %v", err)
	}

	if err := load(newRegistry(), func(e *snapshot.Encoder) {
		e.Int(1)
		e.Str("m")
		e.Str("c")
		e.Int(-1)
		e.Int(int(KindHist))
		e.F64(0)
		e.Int(1)
		e.Int(histBuckets) // bucket index out of range
		e.U64(1)
	}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("bucket index: err = %v", err)
	}

	data := saveRegistry(populatedRegistry())
	for _, n := range []int{1, len(data) / 2, len(data) - 1} {
		if err := newRegistry().LoadState(snapshot.NewDecoder(data[:n])); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}

// buildTelemetry attaches a hub with a span recorder and a populated
// registry, matching on both sides of a restore.
func buildTelemetry(t *testing.T, withSpans bool) *Telemetry {
	t.Helper()
	s := sim.NewSimulator(1)
	opts := Options{}
	if withSpans {
		opts.Spans = NewSpans(nil, 1.0)
	}
	tl := Attach(s, opts)
	tl.Registry().Counter("flits_routed", "r0", -1, 0).Add(7)
	return tl
}

func saveTelemetry(tl *Telemetry) []byte {
	e := snapshot.NewEncoder()
	tl.SaveState(e)
	return e.Bytes()
}

func TestTelemetryStateRoundTrip(t *testing.T) {
	tl := buildTelemetry(t, true)
	tl.first = false
	sp := tl.Spans()
	sp.live[7] = &msgSpan{
		rec: SpanRecord{Msg: 7, App: 1, Src: 2, Dst: 3, Queue: 4,
			PerHop: []SpanHop{{VCAlloc: 1, SWAlloc: 2, Xbar: 3, Output: 4, Wire: 5}}},
		lastT: 50, hop: 1,
	}
	sp.live[3] = &msgSpan{rec: SpanRecord{Msg: 3, App: 0, Src: 9, Dst: 0}, lastT: 41}
	sp.records.Store(12)
	data := saveTelemetry(tl)

	got := buildTelemetry(t, true)
	d := snapshot.NewDecoder(data)
	if err := got.LoadState(d); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if got.first {
		t.Fatal("baseline flag set after restore")
	}
	gsp := got.Spans()
	if len(gsp.live) != 2 || gsp.Records() != 12 {
		t.Fatalf("restored spans: %d live, %d records", len(gsp.live), gsp.Records())
	}
	if s7 := gsp.live[7]; s7 == nil || s7.hop != 1 || s7.lastT != 50 || len(s7.rec.PerHop) != 1 ||
		s7.rec.PerHop[0].Wire != 5 {
		t.Fatalf("restored span 7: %+v", gsp.live[7])
	}
	if !bytes.Equal(saveTelemetry(got), data) {
		t.Fatal("re-saved telemetry state is not byte-identical")
	}
}

func TestTelemetryStateRoundTripWithoutSpans(t *testing.T) {
	tl := buildTelemetry(t, false)
	data := saveTelemetry(tl)
	got := buildTelemetry(t, false)
	if err := got.LoadState(snapshot.NewDecoder(data)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveTelemetry(got), data) {
		t.Fatal("re-saved telemetry state is not byte-identical")
	}
}

func TestTelemetryLoadRejectsSpansMismatch(t *testing.T) {
	data := saveTelemetry(buildTelemetry(t, true))
	got := buildTelemetry(t, false)
	if err := got.LoadState(snapshot.NewDecoder(data)); err == nil ||
		!strings.Contains(err.Error(), "spans state") {
		t.Fatalf("err = %v, want spans mismatch", err)
	}
}

func TestSpansLoadRejectsDuplicate(t *testing.T) {
	e := snapshot.NewEncoder()
	e.Int(2)
	for i := 0; i < 2; i++ { // two open spans for the same message ID
		e.U64(5)
		e.Int(0)
		e.Int(1)
		e.Int(2)
		e.U64(3)
		e.Int(0) // no hops
		e.U64(10)
		e.Int(0)
	}
	e.U64(0)
	sp := NewSpans(nil, 1.0)
	if err := sp.loadState(snapshot.NewDecoder(e.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "duplicate open span") {
		t.Fatalf("err = %v, want duplicate-span error", err)
	}
}

func TestTelemetryLoadRejectsTruncation(t *testing.T) {
	data := saveTelemetry(buildTelemetry(t, true))
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		got := buildTelemetry(t, true)
		if err := got.LoadState(snapshot.NewDecoder(data[:n])); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}
