package torus

import (
	"testing"

	"supersim/internal/config"
	"supersim/internal/netiface"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/types"
)

func build(t *testing.T, doc string) *Torus {
	t.Helper()
	return New(sim.NewSimulator(1), config.MustParse(doc))
}

const t3x4 = `{
  "topology": "torus",
  "dimensions": [3, 4],
  "concentration": 2,
  "channel": {"latency": 2, "period": 1},
  "injection": {"latency": 1},
  "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 4, "crossbar_latency": 1}
}`

func TestShape(t *testing.T) {
	tor := build(t, t3x4)
	if tor.NumRouters() != 12 || tor.NumTerminals() != 24 {
		t.Fatalf("routers=%d terminals=%d", tor.NumRouters(), tor.NumTerminals())
	}
	// radix: 2 terminals + 2 ports per dimension x 2 dims = 6
	if tor.Router(0).Radix() != 6 {
		t.Fatalf("radix = %d", tor.Router(0).Radix())
	}
}

func TestCoordAndNeighbor(t *testing.T) {
	tor := build(t, t3x4)
	// router id = x + 3*y for dims [3,4]
	rid := 2 + 3*1 // (x=2, y=1)
	if tor.coord(rid, 0) != 2 || tor.coord(rid, 1) != 1 {
		t.Fatal("coord extraction wrong")
	}
	// +1 in dim 0 wraps x: (0,1) = 3
	if nb := tor.neighbor(rid, 0, +1); nb != 3 {
		t.Fatalf("neighbor x+ = %d", nb)
	}
	if nb := tor.neighbor(rid, 0, -1); nb != 1+3*1 {
		t.Fatalf("neighbor x- = %d", nb)
	}
	// -1 in dim 1 from y=1: (2,0) = 2
	if nb := tor.neighbor(rid, 1, -1); nb != 2 {
		t.Fatalf("neighbor y- = %d", nb)
	}
	// wrap: (2,0) - 1 in dim 1 -> (2,3)
	if nb := tor.neighbor(2, 1, -1); nb != 2+3*3 {
		t.Fatalf("neighbor wrap = %d", nb)
	}
}

func TestPortLayout(t *testing.T) {
	tor := build(t, t3x4)
	if tor.portPlus(0) != 2 || tor.portMinus(0) != 3 ||
		tor.portPlus(1) != 4 || tor.portMinus(1) != 5 {
		t.Fatal("port layout wrong")
	}
}

// Package-level sinks keep results escaping, so a VC set built per call
// shows up as a heap allocation instead of being stack-allocated after
// inlining.
var (
	routeSink routing.Response
	vcSink    []int
)

func TestRouteAllocatesNothing(t *testing.T) {
	tor := build(t, t3x4)
	// Router id = x + 3y. The dateline class is VC 1.
	for _, c := range []struct {
		name        string
		router, dst int
		scratch     types.RoutingScratch
		wantPort    int
		wantVC      int
	}{
		{"eject", 0, 1, types.RoutingScratch{}, 1, 0},
		{"plus without wrap", 0, 2, types.RoutingScratch{}, tor.portPlus(0), 0},
		{"minus across the dateline", 0, 4, types.RoutingScratch{}, tor.portMinus(0), 1},
		{"past the dateline", 3, 12, types.RoutingScratch{Valid: true, Phase: 1, Dateline: true}, tor.portPlus(1), 1},
	} {
		ra := tor.routingAlg(c.router, 0, nil, nil)
		pkt := &types.Packet{Msg: &types.Message{Dst: c.dst}, Intermediate: -1}
		route := func() {
			pkt.Routing = c.scratch
			routeSink = ra.Route(0, pkt, 0, 0)
		}
		if allocs := testing.AllocsPerRun(100, route); allocs != 0 {
			t.Errorf("%s: Route allocates %.1f objects per call", c.name, allocs)
		}
		if routeSink.Port != c.wantPort || routeSink.VCs[0] != c.wantVC {
			t.Errorf("%s: routed to port %d VCs %v, want port %d from VC %d",
				c.name, routeSink.Port, routeSink.VCs, c.wantPort, c.wantVC)
		}
	}
	var policy netiface.InjectionPolicy = tor.injectionVCs
	pkt := &types.Packet{Msg: &types.Message{Dst: 4}, Intermediate: -1}
	if allocs := testing.AllocsPerRun(100, func() { vcSink = policy(pkt) }); allocs != 0 {
		t.Errorf("injection policy allocates %.1f objects per call", allocs)
	}
}
