package dragonfly

import (
	"math/rand/v2"
	"testing"

	"supersim/internal/config"
	"supersim/internal/congestion"
	"supersim/internal/netiface"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/types"
)

func build(t *testing.T) *Dragonfly {
	t.Helper()
	return New(sim.NewSimulator(1), config.MustParse(`{
	  "topology": "dragonfly",
	  "concentration": 2,
	  "group_size": 2,
	  "global_links": 2,
	  "channel": {"latency": 2, "period": 1},
	  "injection": {"latency": 1},
	  "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 4, "crossbar_latency": 1},
	  "routing": {"algorithm": "minimal"}
	}`))
}

func TestBalancedShape(t *testing.T) {
	d := build(t)
	// a=2, h=2 => groups = 5, routers = 10, terminals = 20
	if d.groups != 5 {
		t.Fatalf("groups = %d", d.groups)
	}
	if d.NumRouters() != 10 || d.NumTerminals() != 20 {
		t.Fatalf("routers=%d terminals=%d", d.NumRouters(), d.NumTerminals())
	}
	// radix = p + (a-1) + h = 2 + 1 + 2 = 5
	if d.Router(0).Radix() != 5 {
		t.Fatalf("radix = %d", d.Router(0).Radix())
	}
}

func TestPortLayout(t *testing.T) {
	d := build(t)
	if d.localPort(1) != 2 {
		t.Fatalf("local port = %d", d.localPort(1))
	}
	if d.globalPort(0) != 3 || d.globalPort(1) != 4 {
		t.Fatal("global ports wrong")
	}
}

func TestGlobalOwnerBijective(t *testing.T) {
	d := build(t)
	// Every (group, target group) pair maps to a unique (router, port) slot
	// within the group, and the reverse mapping from the target group points
	// back consistently.
	for g := 0; g < d.groups; g++ {
		seen := map[[2]int]int{}
		for tg := 0; tg < d.groups; tg++ {
			if tg == g {
				continue
			}
			r, p := d.globalOwner(g, tg)
			if r < 0 || r >= d.a || p < 0 || p >= d.h {
				t.Fatalf("owner out of range: g=%d tg=%d -> (%d,%d)", g, tg, r, p)
			}
			if prev, dup := seen[[2]int{r, p}]; dup {
				t.Fatalf("slot (%d,%d) of group %d serves both %d and %d", r, p, g, prev, tg)
			}
			seen[[2]int{r, p}] = tg
		}
		if len(seen) != d.groups-1 {
			t.Fatalf("group %d uses %d slots, want %d", g, len(seen), d.groups-1)
		}
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
	// a=2, h=2: router 0 owns the global links to groups 1 and 2, router 1
	// those to groups 3 and 4. Ports: terminals 0-1, local 2, global 3-4.
	// Non-minimal packets detour through group 2.
	d := New(sim.NewSimulator(1), config.MustParse(`{
	  "topology": "dragonfly",
	  "concentration": 2,
	  "group_size": 2,
	  "global_links": 2,
	  "channel": {"latency": 2, "period": 1},
	  "injection": {"latency": 1},
	  "router": {"architecture": "input_queued", "num_vcs": 3, "input_buffer_depth": 4, "crossbar_latency": 1},
	  "routing": {"algorithm": "ugal"}
	}`))
	rng := rand.New(rand.NewPCG(1, 2))
	for _, c := range []struct {
		name        string
		router, dst int
		hops        int
		nonMinimal  bool
		wantPort    int
	}{
		{"eject", 0, 1, 1, false, 1},
		{"minimal local in destination group", 0, 2, 1, false, 2},
		{"ugal decision then minimal global", 0, 4, 0, false, 3},
		{"minimal local toward global owner", 0, 12, 1, false, 2},
		{"non-minimal global to intermediate", 0, 12, 1, true, 4},
		{"non-minimal local in intermediate group", 4, 12, 2, true, 2},
		{"non-minimal local in destination group", 7, 12, 3, true, 2},
	} {
		alg := d.routingAlg(c.router, 0, congestion.NullSensor{}, rng)
		pkt := &types.Packet{Msg: &types.Message{Dst: c.dst}}
		route := func() {
			pkt.HopCount, pkt.NonMinimal, pkt.Intermediate = c.hops, c.nonMinimal, 2
			pkt.Routing = types.RoutingScratch{}
			routeSink = alg.Route(0, pkt, 0, 0)
		}
		if allocs := testing.AllocsPerRun(100, route); allocs != 0 {
			t.Errorf("%s: Route allocates %.1f objects per call", c.name, allocs)
		}
		if routeSink.Port != c.wantPort {
			t.Errorf("%s: routed to port %d, want %d", c.name, routeSink.Port, c.wantPort)
		}
	}
	var policy netiface.InjectionPolicy = d.injectionVCs
	pkt := &types.Packet{Msg: &types.Message{Dst: 4}}
	if allocs := testing.AllocsPerRun(100, func() { vcSink = policy(pkt) }); allocs != 0 {
		t.Errorf("injection policy allocates %.1f objects per call", allocs)
	}
}
