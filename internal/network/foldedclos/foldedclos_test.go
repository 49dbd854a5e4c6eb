package foldedclos

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

func build(t *testing.T, k, levels int) *FoldedClos {
	t.Helper()
	s := sim.NewSimulator(1)
	cfg := config.MustParse(`{
	  "topology": "folded_clos",
	  "half_radix": ` + itoa(k) + `,
	  "levels": ` + itoa(levels) + `,
	  "channel": {"latency": 2, "period": 1},
	  "injection": {"latency": 1},
	  "router": {"architecture": "input_queued", "num_vcs": 1, "input_buffer_depth": 4, "crossbar_latency": 1}
	}`)
	return New(s, cfg)
}

func itoa(v int) string {
	return string(rune('0' + v))
}

func TestShapeCounts(t *testing.T) {
	f := build(t, 4, 3)
	// 4^3 = 64 terminals; 3 levels x 4^2 = 48 routers.
	if f.NumTerminals() != 64 {
		t.Fatalf("terminals = %d", f.NumTerminals())
	}
	if f.NumRouters() != 48 {
		t.Fatalf("routers = %d", f.NumRouters())
	}
	// Leaf and mid routers radix 8; roots radix 4.
	if f.Router(0).Radix() != 8 {
		t.Fatalf("leaf radix %d", f.Router(0).Radix())
	}
	if f.Router(2*16).Radix() != 4 {
		t.Fatalf("root radix %d", f.Router(32).Radix())
	}
}

func TestDigitHelpers(t *testing.T) {
	f := build(t, 4, 3)
	// w = 0b 23 in base 4: digits (2, 3) -> w = 2*4+3 = 11
	if f.digit(11, 0) != 3 || f.digit(11, 1) != 2 {
		t.Fatal("digit extraction wrong")
	}
	if f.replaceDigit(11, 0, 1) != 9 { // (2,1)
		t.Fatalf("replaceDigit low = %d", f.replaceDigit(11, 0, 1))
	}
	if f.replaceDigit(11, 1, 0) != 3 { // (0,3)
		t.Fatalf("replaceDigit high = %d", f.replaceDigit(11, 1, 0))
	}
}

func TestCoversSubtrees(t *testing.T) {
	f := build(t, 4, 3)
	// Leaf router w covers exactly terminals [w*k, w*k+k).
	for w := 0; w < f.perLvl; w += 5 {
		for term := 0; term < 64; term++ {
			want := term/4 == w
			if got := f.covers(0, w, term); got != want {
				t.Fatalf("covers(0, %d, %d) = %v, want %v", w, term, got, want)
			}
		}
	}
	// Level-1 router (x1, x0) covers terminals with top digit == x1.
	for w := 0; w < f.perLvl; w++ {
		x1 := f.digit(w, 1)
		for term := 0; term < 64; term++ {
			want := term/16 == x1
			if got := f.covers(1, w, term); got != want {
				t.Fatalf("covers(1, %d, %d) = %v, want %v", w, term, got, want)
			}
		}
	}
	// Roots cover everything.
	for w := 0; w < f.perLvl; w++ {
		for term := 0; term < 64; term += 7 {
			if !f.covers(2, w, term) {
				t.Fatal("root must cover all terminals")
			}
		}
	}
}

func TestLevelIndexDecomposition(t *testing.T) {
	f := build(t, 4, 3)
	for rid := 0; rid < f.NumRouters(); rid++ {
		lvl, idx := f.level(rid), f.index(rid)
		if lvl*f.perLvl+idx != rid {
			t.Fatalf("decomposition of %d wrong", rid)
		}
		if lvl < 0 || lvl > 2 || idx < 0 || idx >= 16 {
			t.Fatalf("rid %d -> (%d, %d)", rid, lvl, idx)
		}
	}
}

// Package-level sinks keep results escaping, so a VC set or candidate list
// built per call shows up as a heap allocation instead of being
// stack-allocated after inlining.
var (
	routeSink routing.Response
	vcSink    []int
)

func TestRouteAllocatesNothing(t *testing.T) {
	for _, alg := range []string{"adaptive_uprouting", "oblivious_uprouting"} {
		// k=2, 3 levels: leaves 0-3, middle 4-7, roots 8-11; ports 0-1 face
		// down and 2-3 up.
		f := New(sim.NewSimulator(1), config.MustParse(`{
		  "topology": "folded_clos",
		  "half_radix": 2,
		  "levels": 3,
		  "channel": {"latency": 2, "period": 1},
		  "injection": {"latency": 1},
		  "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 4, "crossbar_latency": 1},
		  "routing": {"algorithm": "`+alg+`"}
		}`))
		rng := rand.New(rand.NewPCG(1, 2))
		for _, c := range []struct {
			name        string
			router, dst int
			up          bool
			downPort    int
		}{
			{"leaf up", 0, 7, true, 0},
			{"leaf eject", 0, 1, false, 1},
			{"middle up", 4, 7, true, 0},
			{"middle down", 4, 2, false, 1},
			{"root down", 8, 7, false, 1},
		} {
			ra := f.routingAlg(c.router, 0, congestion.NullSensor{}, rng)
			pkt := &types.Packet{Msg: &types.Message{Dst: c.dst}, Intermediate: -1}
			route := func() { routeSink = ra.Route(0, pkt, 0, 0) }
			if allocs := testing.AllocsPerRun(100, route); allocs != 0 {
				t.Errorf("%s %s: Route allocates %.1f objects per call", alg, c.name, allocs)
			}
			if up := routeSink.Port >= f.k; up != c.up || (!up && routeSink.Port != c.downPort) {
				t.Errorf("%s %s: routed to port %d", alg, c.name, routeSink.Port)
			}
		}
		var policy netiface.InjectionPolicy = f.injectionVCs
		pkt := &types.Packet{Msg: &types.Message{Dst: 7}, Intermediate: -1}
		if allocs := testing.AllocsPerRun(100, func() { vcSink = policy(pkt) }); allocs != 0 {
			t.Errorf("%s: injection policy allocates %.1f objects per call", alg, allocs)
		}
	}
}
