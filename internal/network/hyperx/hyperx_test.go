package hyperx

import (
	"math/rand/v2"
	"strings"
	"testing"

	"supersim/internal/config"
	"supersim/internal/congestion"
	"supersim/internal/netiface"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/types"
)

func build(t *testing.T, doc string) *HyperX {
	t.Helper()
	return New(sim.NewSimulator(1), config.MustParse(doc))
}

const h3x4 = `{
  "topology": "hyperx",
  "widths": [3, 4],
  "concentration": 2,
  "channel": {"latency": 2, "period": 1},
  "injection": {"latency": 1},
  "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 4, "crossbar_latency": 1},
  "routing": {"algorithm": "dimension_order"}
}`

func TestShapeAndRadix(t *testing.T) {
	h := build(t, h3x4)
	if h.NumRouters() != 12 || h.NumTerminals() != 24 {
		t.Fatalf("routers=%d terminals=%d", h.NumRouters(), h.NumTerminals())
	}
	// radix = conc 2 + (3-1) + (4-1) = 7
	if h.Router(0).Radix() != 7 {
		t.Fatalf("radix = %d", h.Router(0).Radix())
	}
}

func TestOffsetPorts(t *testing.T) {
	h := build(t, h3x4)
	// dim 0 offsets 1,2 -> ports 2,3; dim 1 offsets 1..3 -> ports 4..6
	if h.offsetPort(0, 1) != 2 || h.offsetPort(0, 2) != 3 {
		t.Fatal("dim 0 ports wrong")
	}
	if h.offsetPort(1, 1) != 4 || h.offsetPort(1, 3) != 6 {
		t.Fatal("dim 1 ports wrong")
	}
}

func TestNeighborAllToAll(t *testing.T) {
	h := build(t, h3x4)
	// router (1, 2) = 1 + 3*2 = 7; offset 2 in dim 0: x=(1+2)%3=0 -> 6
	if nb := h.neighbor(7, 0, 2); nb != 6 {
		t.Fatalf("neighbor = %d", nb)
	}
	// offset 3 in dim 1: y=(2+3)%4=1 -> 1+3=4
	if nb := h.neighbor(7, 1, 3); nb != 4 {
		t.Fatalf("neighbor = %d", nb)
	}
}

func TestMinimalPortAndHops(t *testing.T) {
	h := build(t, h3x4)
	// From router 0 (0,0) to router 7 (1,2): first differing dim 0, offset 1.
	if p := h.minimalPort(0, 7); p != h.offsetPort(0, 1) {
		t.Fatalf("minimal port = %d", p)
	}
	if hops := h.minimalHops(0, 7); hops != 2 {
		t.Fatalf("hops = %d", hops)
	}
	if h.minimalPort(7, 7) != -1 || h.minimalHops(7, 7) != 0 {
		t.Fatal("self routing wrong")
	}
	// Same row: only dim 1 differs.
	if hops := h.minimalHops(0, 9); hops != 1 { // (0,0)->(0,3)
		t.Fatalf("hops = %d", hops)
	}
}

func TestLinkPairingConsistency(t *testing.T) {
	// The o and S-o offset ports must pair up: wiring uses Link (one
	// direction at a time), and every port must end up connected, which New
	// verifies implicitly by SetDownstreamCredits panicking on double set...
	// here simply assert construction succeeded with all ports wired by
	// routing a packet over every port via the registry-built network.
	h := build(t, h3x4)
	if len(h.Channels()) == 0 {
		t.Fatal("no channels built")
	}
	// channels: per router: 2 terminals x2 + (2+3) links (one direction
	// each, both directions exist across the set) => total = 12*(2*2+5) =
	// 12*9 = 108
	if len(h.Channels()) != 108 {
		t.Fatalf("channels = %d", len(h.Channels()))
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
	for _, alg := range []string{"dimension_order", "ugal"} {
		h := build(t, strings.Replace(h3x4, "dimension_order", alg, 1))
		rng := rand.New(rand.NewPCG(1, 2))
		// Terminal 10 sits on router 5; non-minimal packets detour via
		// router 7.
		for _, c := range []struct {
			name        string
			router, dst int
			hops, inter int
			nonMinimal  bool
			wantPort    int
		}{
			{"eject", 0, 1, 1, -1, false, 1},
			{"source decision then minimal", 0, 10, 0, -1, false, h.minimalPort(0, 5)},
			{"phase 0 toward intermediate", 0, 10, 1, 7, true, h.minimalPort(0, 7)},
			{"phase 1 from intermediate", 7, 10, 2, 7, true, h.minimalPort(7, 5)},
		} {
			ra := h.routingAlg(c.router, 0, congestion.NullSensor{}, rng)
			pkt := &types.Packet{Msg: &types.Message{Dst: c.dst}}
			route := func() {
				pkt.HopCount, pkt.Intermediate, pkt.NonMinimal = c.hops, c.inter, c.nonMinimal
				routeSink = ra.Route(0, pkt, 0, 0)
			}
			if allocs := testing.AllocsPerRun(100, route); allocs != 0 {
				t.Errorf("%s %s: Route allocates %.1f objects per call", alg, c.name, allocs)
			}
			if routeSink.Port != c.wantPort {
				t.Errorf("%s %s: routed to port %d, want %d", alg, c.name, routeSink.Port, c.wantPort)
			}
		}
		var policy netiface.InjectionPolicy = h.injectionVCs
		pkt := &types.Packet{Msg: &types.Message{Dst: 10}, Intermediate: -1}
		if allocs := testing.AllocsPerRun(100, func() { vcSink = policy(pkt) }); allocs != 0 {
			t.Errorf("%s: injection policy allocates %.1f objects per call", alg, allocs)
		}
	}
}
