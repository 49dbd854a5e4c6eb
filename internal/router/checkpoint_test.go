package router

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/snapshot"
	"supersim/internal/types"
)

const ioqCheckpointDoc = `{
  "architecture": "input_output_queued",
  "num_vcs": 2,
  "speedup": 1,
  "input_buffer_depth": 8,
  "output_queue_depth": 4,
  "crossbar_latency": 2
}`

const oqCheckpointDoc = `{
  "architecture": "output_queued",
  "num_vcs": 1,
  "input_buffer_depth": 8,
  "queue_latency": 5,
  "output_queue_depth": 16,
  "congestion_sensor": {"granularity": "port", "source": "output"}
}`

// stalledRouter builds a lone router with a single downstream credit and no
// credit returns, then pushes a 3-flit packet: one flit escapes, the rest of
// the packet is buffered inside the router — routed, part-way through the
// pipeline, but unable to leave.
func stalledRouter(t *testing.T, doc string, vcs int) Stater {
	t.Helper()
	s, r, out, _ := buildLoneRouter(t, doc, vcs, 1)
	out.creditC = nil // starve the router: no credit returns
	pushPacket(s, r, 3, vcs-1, 10)
	s.Run()
	if len(out.flits) != 1 {
		t.Fatalf("router forwarded %d flits with 1 credit", len(out.flits))
	}
	return r.(Stater)
}

// saveRouter collects the router's buffered messages into a table and
// serializes both, returning the table bytes and state bytes.
func saveRouter(t *testing.T, r Stater) (tabData, data []byte) {
	t.Helper()
	tab := types.NewMessageTable()
	r.Collect(tab)
	if tab.Len() != 1 {
		t.Fatalf("collected %d messages, want the stalled packet's", tab.Len())
	}
	te := snapshot.NewEncoder()
	tab.SaveState(te)
	e := snapshot.NewEncoder()
	r.SaveState(e, tab)
	return te.Bytes(), e.Bytes()
}

// roundTripRouter restores the stalled router's state into a freshly built
// identical router and requires a byte-identical re-save, then runs the
// truncation sweep.
func roundTripRouter(t *testing.T, doc string, vcs int) {
	t.Helper()
	r := stalledRouter(t, doc, vcs)
	tabData, data := saveRouter(t, r)

	rtab, err := types.LoadMessageTable(snapshot.NewDecoder(tabData), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, fresh, _, _ := buildLoneRouter(t, doc, vcs, 1)
	got := fresh.(Stater)
	d := snapshot.NewDecoder(data)
	if err := got.LoadState(d, rtab); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	e2 := snapshot.NewEncoder()
	got.SaveState(e2, rtab)
	if !bytes.Equal(e2.Bytes(), data) {
		t.Fatal("re-saved router state is not byte-identical")
	}

	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		_, tr, _, _ := buildLoneRouter(t, doc, vcs, 1)
		if err := tr.(Stater).LoadState(snapshot.NewDecoder(data[:n]), rtab); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}

func TestIQStateRoundTrip(t *testing.T)  { roundTripRouter(t, iqDoc, 2) }
func TestIOQStateRoundTrip(t *testing.T) { roundTripRouter(t, ioqCheckpointDoc, 2) }
func TestOQStateRoundTrip(t *testing.T)  { roundTripRouter(t, oqCheckpointDoc, 1) }

func TestRouterLoadRejectsMismatchedBuild(t *testing.T) {
	r := stalledRouter(t, iqDoc, 2)
	tabData, data := saveRouter(t, r)
	rtab, err := types.LoadMessageTable(snapshot.NewDecoder(tabData), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Same architecture, different VC count: the per-port credit vectors
	// cannot line up.
	narrowDoc := strings.Replace(iqDoc, `"num_vcs": 2`, `"num_vcs": 1`, 1)
	_, narrow, _, _ := buildLoneRouter(t, narrowDoc, 1, 1)
	if err := narrow.(Stater).LoadState(snapshot.NewDecoder(data), rtab); err == nil ||
		!strings.Contains(err.Error(), "VCs") {
		t.Fatalf("VC mismatch: err = %v", err)
	}

	// An OQ snapshot restored into an OQ build with a different congestion
	// sensor configuration must fail on the sensor state.
	oq := stalledRouter(t, oqCheckpointDoc, 1)
	oqTab, oqData := saveRouter(t, oq)
	oqrtab, err := types.LoadMessageTable(snapshot.NewDecoder(oqTab), nil)
	if err != nil {
		t.Fatal(err)
	}
	nullDoc := strings.Replace(oqCheckpointDoc,
		`"congestion_sensor": {"granularity": "port", "source": "output"}`,
		`"congestion_sensor": {"type": "null"}`, 1)
	_, ns, _, _ := buildLoneRouter(t, nullDoc, 1, 1)
	if err := ns.(Stater).LoadState(snapshot.NewDecoder(oqData), oqrtab); err == nil ||
		!strings.Contains(err.Error(), "congestion sensor") {
		t.Fatalf("sensor mismatch: err = %v", err)
	}
}

// TestRouterLoadRejectsOutOfRangeIndices corrupts one index-valued field of
// a saved stalled router at a time and requires the restore to fail: every
// one of these would otherwise load cleanly and panic with an index out of
// range on the restored router's next pipeline cycle.
func TestRouterLoadRejectsOutOfRangeIndices(t *testing.T) {
	iq := func(fn func(r *IQ)) func(Stater) { return func(s Stater) { fn(s.(*IQ)) } }
	ioq := func(fn func(r *IOQ)) func(Stater) { return func(s Stater) { fn(s.(*IOQ)) } }
	oq := func(fn func(r *OQ)) func(Stater) { return func(s Stater) { fn(s.(*OQ)) } }
	cases := []struct {
		name    string
		doc     string
		vcs     int
		corrupt func(Stater)
	}{
		{"vcPending", ioqCheckpointDoc, 2, ioq(func(r *IOQ) { r.vcPending = append(r.vcPending, 9999) })},
		{"vcPending negative", iqDoc, 2, iq(func(r *IQ) { r.vcPending = append(r.vcPending, -1) })},
		{"holder", ioqCheckpointDoc, 2, ioq(func(r *IOQ) { r.holder[0] = 12345 })},
		{"holder below free", iqDoc, 2, iq(func(r *IQ) { r.holder[1] = -2 })},
		{"outOwner", oqCheckpointDoc, 1, oq(func(r *OQ) { r.outOwner[0] = 42 })},
		{"xbarSched contender", iqDoc, 2, iq(func(r *IQ) { r.sched[1].contenders[0] = 77 })},
		{"xbarSched locked", iqDoc, 2, iq(func(r *IQ) { r.sched[1].locked = 50 })},
		{"xbarSched lastGrant", ioqCheckpointDoc, 2, ioq(func(r *IOQ) { r.sched[1].lastGrant = -7 })},
		{"routeState", iqDoc, 2, iq(func(r *IQ) { r.in[1].routeState = 9 })},
		{"outPort", iqDoc, 2, iq(func(r *IQ) { r.in[1].outPort = 5 })},
		{"outVC", iqDoc, 2, iq(func(r *IQ) { r.in[1].outVC = 3 })},
		{"OQ outVC", oqCheckpointDoc, 1, oq(func(r *OQ) { r.in[0].outVC = 3 })},
		{"delay line port", iqDoc, 2, iq(func(r *IQ) {
			r.dl.q = append(r.dl.q, flight{at: 100, f: r.in[1].q.peek(), port: 99})
		})},
		{"response port", iqDoc, 2, iq(func(r *IQ) { r.in[1].resp.Port = 7 })},
		{"response VC", iqDoc, 2, iq(func(r *IQ) { r.in[1].resp.VCs = []int{0, 4} })},
		{"OQ response port", oqCheckpointDoc, 1, oq(func(r *OQ) { r.in[0].resp.Port = -3 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := stalledRouter(t, tc.doc, tc.vcs)
			tc.corrupt(r)
			tabData, data := saveRouter(t, r)
			rtab, err := types.LoadMessageTable(snapshot.NewDecoder(tabData), nil)
			if err != nil {
				t.Fatal(err)
			}
			_, fresh, _, _ := buildLoneRouter(t, tc.doc, tc.vcs, 1)
			err = fresh.(Stater).LoadState(snapshot.NewDecoder(data), rtab)
			if err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("corrupted %s: err = %v, want an out-of-range error", tc.name, err)
			}
		})
	}
}
