package parkinglot

import (
	"testing"

	"supersim/internal/config"
	"supersim/internal/netiface"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/types"
)

func TestShape(t *testing.T) {
	p := New(sim.NewSimulator(1), config.MustParse(`{
	  "topology": "parking_lot",
	  "routers": 4,
	  "channel": {"latency": 2, "period": 1},
	  "injection": {"latency": 1},
	  "router": {"architecture": "input_queued", "num_vcs": 1, "input_buffer_depth": 4, "crossbar_latency": 1}
	}`))
	if p.NumRouters() != 4 || p.NumTerminals() != 4 {
		t.Fatalf("routers=%d terminals=%d", p.NumRouters(), p.NumTerminals())
	}
	if p.Router(0).Radix() != 3 {
		t.Fatalf("radix = %d", p.Router(0).Radix())
	}
	// channels: 3 links x2 + 4 terminals x2 = 14
	if len(p.Channels()) != 14 {
		t.Fatalf("channels = %d", len(p.Channels()))
	}
}

func TestRejectsTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.NewSimulator(1), config.MustParse(`{
	  "topology": "parking_lot",
	  "routers": 1,
	  "channel": {"latency": 2, "period": 1},
	  "router": {}
	}`))
}

// Package-level sinks keep results escaping, so a VC set built per call
// shows up as a heap allocation instead of being stack-allocated after
// inlining.
var (
	routeSink routing.Response
	vcSink    []int
)

func TestRouteAllocatesNothing(t *testing.T) {
	p := New(sim.NewSimulator(1), config.MustParse(`{
	  "topology": "parking_lot",
	  "routers": 3,
	  "channel": {"latency": 2, "period": 1},
	  "injection": {"latency": 1},
	  "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 4, "crossbar_latency": 1}
	}`))
	ra := p.routingAlg(1, 0, nil, nil)
	for _, c := range []struct {
		name     string
		dst      int
		wantPort int
	}{
		{"toward lower", 0, 1},
		{"toward higher", 2, 2},
		{"eject", 1, 0},
	} {
		pkt := &types.Packet{Msg: &types.Message{Dst: c.dst}, Intermediate: -1}
		if allocs := testing.AllocsPerRun(100, func() { routeSink = ra.Route(0, pkt, 0, 0) }); allocs != 0 {
			t.Errorf("%s: Route allocates %.1f objects per call", c.name, allocs)
		}
		if routeSink.Port != c.wantPort {
			t.Errorf("%s: routed to port %d, want %d", c.name, routeSink.Port, c.wantPort)
		}
	}
	var policy netiface.InjectionPolicy = p.injectionVCs
	pkt := &types.Packet{Msg: &types.Message{Dst: 2}, Intermediate: -1}
	if allocs := testing.AllocsPerRun(100, func() { vcSink = policy(pkt) }); allocs != 0 {
		t.Errorf("injection policy allocates %.1f objects per call", allocs)
	}
}
