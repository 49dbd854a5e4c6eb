package sim

import (
	"strings"
	"testing"
)

// pingNode is a two-shard ping-pong endpoint: each ProcessEvent logs its tick
// and posts the ball back through its RemotePort until the rally limit.
type pingNode struct {
	ComponentBase
	port  *RemotePort
	lat   Tick
	limit int
	log   []Tick
}

func (n *pingNode) ReceiveRemote(at Tick, ptr any, aux int) {
	n.Sim().Schedule(n, Time{Tick: at}, aux, nil)
}

func (n *pingNode) ProcessEvent(ev *Event) {
	n.log = append(n.log, ev.Time.Tick)
	if ev.Type < n.limit {
		n.port.Send(n.port.SrcNow().Tick+n.lat, nil, ev.Type+1)
	}
}

// buildPingPong wires two shards with a node on each, linked both ways with
// the given latency, and serves the first ball to node a at tick 1.
func buildPingPong(lat Tick, limit int) (*Engine, *pingNode, *pingNode) {
	host := NewSimulator(1)
	eng := NewEngine(host)
	s1 := eng.AddShard()
	a := &pingNode{ComponentBase: NewComponentBase(host, "a"), lat: lat, limit: limit}
	b := &pingNode{ComponentBase: NewComponentBase(host, "b"), lat: lat, limit: limit}
	eng.Adopt(b, s1)
	a.port = eng.Link(host, s1, lat, b)
	b.port = eng.Link(s1, host, lat, a)
	host.Schedule(a, Time{Tick: 1}, 0, nil)
	return eng, a, b
}

func TestEnginePingPong(t *testing.T) {
	const lat, limit = 3, 20
	eng, a, b := buildPingPong(lat, limit)
	events, end := eng.Run()
	if want := uint64(limit + 1); events != want {
		t.Fatalf("executed %d events, want %d", events, want)
	}
	if want := Tick(1 + lat*limit); end.Tick != want {
		t.Fatalf("end tick %d, want %d", end.Tick, want)
	}
	// The rally alternates: a at 1, 1+2lat, ...; b at 1+lat, 1+3lat, ...
	for i, tk := range a.log {
		if want := Tick(1 + 2*lat*Tick(i)); tk != want {
			t.Fatalf("a hop %d at tick %d, want %d", i, tk, want)
		}
	}
	for i, tk := range b.log {
		if want := Tick(1 + lat + 2*lat*Tick(i)); tk != want {
			t.Fatalf("b hop %d at tick %d, want %d", i, tk, want)
		}
	}
}

func TestEngineHostOnlyWorkTerminates(t *testing.T) {
	// A shard with no events of its own (and no cross traffic) must not keep
	// the engine alive: global quiescence is the termination condition.
	host := NewSimulator(1)
	r := &recorder{ComponentBase: NewComponentBase(host, "rec")}
	for i := 0; i < 10; i++ {
		host.Schedule(r, Time{Tick: Tick(i + 1)}, i, nil)
	}
	eng := NewEngine(host)
	eng.AddShard()
	events, end := eng.Run()
	if events != 10 || end.Tick != 10 {
		t.Fatalf("events=%d end=%d, want 10/10", events, end.Tick)
	}
}

func TestEngineIgnoresTrailingDaemons(t *testing.T) {
	// A far-future daemon (watchdog-style observer) on a shard with incoming
	// cross-shard edges — as every shard of a real topology has — must not
	// stall termination, count as work, or execute past the last real work.
	const lat, limit = 3, 6
	eng, _, _ := buildPingPong(lat, limit)
	daemonRan := false
	eng.Host().ScheduleDaemon(HandlerFunc(func(ev *Event) { daemonRan = true }),
		Time{Tick: 1 << 40}, 0, nil)
	events, end := eng.Run()
	if want := uint64(limit + 1); events != want || end.Tick != Tick(1+lat*limit) {
		t.Fatalf("events=%d end=%d, want %d/%d", events, end.Tick, want, 1+lat*limit)
	}
	if daemonRan {
		t.Fatal("trailing daemon executed past the last real work")
	}
}

func TestEngineStopHalts(t *testing.T) {
	const lat = 2
	host := NewSimulator(1)
	eng := NewEngine(host)
	s1 := eng.AddShard()
	a := &pingNode{ComponentBase: NewComponentBase(host, "a"), lat: lat, limit: 1 << 30}
	b := &pingNode{ComponentBase: NewComponentBase(host, "b"), lat: lat, limit: 1 << 30}
	eng.Adopt(b, s1)
	a.port = eng.Link(host, s1, lat, b)
	b.port = eng.Link(s1, host, lat, a)
	stopper := HandlerFunc(func(ev *Event) { host.Stop() })
	host.Schedule(a, Time{Tick: 1}, 0, nil)
	host.Schedule(stopper, Time{Tick: 1 + 10*lat, Eps: 1}, 0, nil)
	eng.Run() // must return rather than rally forever
	if !host.Stopped() {
		t.Fatal("host not stopped")
	}
}

// panicNode panics when its event executes, from the shard goroutine.
type panicNode struct{ ComponentBase }

func (p *panicNode) ReceiveRemote(at Tick, ptr any, aux int) {
	p.Sim().Schedule(p, Time{Tick: at}, aux, nil)
}
func (p *panicNode) ProcessEvent(ev *Event) { panic("bomb detonated") }

func TestEnginePanicPropagates(t *testing.T) {
	host := NewSimulator(1)
	eng := NewEngine(host)
	s1 := eng.AddShard()
	bomb := &panicNode{ComponentBase: NewComponentBase(host, "bomb")}
	eng.Adopt(bomb, s1)
	port := eng.Link(host, s1, 1, bomb)
	host.Schedule(HandlerFunc(func(ev *Event) {
		port.Send(host.Now().Tick+1, nil, 0)
	}), Time{Tick: 1}, 0, nil)
	// The panic fires on shard 1's goroutine; the engine must stop every
	// worker and re-raise it on the calling goroutine.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("shard panic was not propagated")
		}
		if s, ok := r.(string); !ok || s != "bomb detonated" {
			t.Fatalf("propagated panic = %v, want the shard's panic value", r)
		}
	}()
	eng.Run()
}

func TestEngineLinkValidation(t *testing.T) {
	host := NewSimulator(1)
	eng := NewEngine(host)
	s1 := eng.AddShard()
	n := &pingNode{ComponentBase: NewComponentBase(host, "n")}
	mustPanic(t, func() { eng.Link(host, s1, 0, n) })   // zero lookahead
	mustPanic(t, func() { eng.Link(host, s1, 1, nil) }) // no receiver
	mustPanic(t, func() { eng.Link(host, host, 1, n) }) // same shard
	other := NewSimulator(2)
	mustPanic(t, func() { eng.Link(host, other, 1, n) }) // foreign simulator
	mustPanic(t, func() { NewEngine(host) })             // already attached
}

func TestEngineAdoptRequiresComponentBase(t *testing.T) {
	host := NewSimulator(1)
	eng := NewEngine(host)
	s1 := eng.AddShard()
	mustPanic(t, func() { eng.Adopt(HandlerFunc(func(ev *Event) {}), s1) })
	mustPanic(t, func() {
		n := &pingNode{ComponentBase: NewComponentBase(host, "n")}
		eng.Adopt(n, NewSimulator(3)) // not a shard of this engine
	})
}

// namedRec records which component executed, for cross-component order tests.
type namedRec struct {
	ComponentBase
	out *[]string
}

func (n *namedRec) ProcessEvent(ev *Event) { *n.out = append(*n.out, n.Name()) }

func TestSameTimeOrderByConstructionOrder(t *testing.T) {
	// Events at identical (tick, eps) from different components execute in
	// component construction order, not scheduling order — the property that
	// makes the merge order partition-independent (a shard cannot observe the
	// global scheduling interleaving, but construction order is fixed at
	// build time).
	s := NewSimulator(1)
	var got []string
	a := &namedRec{ComponentBase: NewComponentBase(s, "a"), out: &got}
	b := &namedRec{ComponentBase: NewComponentBase(s, "b"), out: &got}
	c := &namedRec{ComponentBase: NewComponentBase(s, "c"), out: &got}
	for _, h := range []Handler{c, a, b} { // schedule out of construction order
		s.Schedule(h, Time{Tick: 5}, 0, nil)
	}
	s.Run()
	if want := "a b c"; strings.Join(got, " ") != want {
		t.Fatalf("same-time order %v, want construction order %q", got, want)
	}
}

func TestDeriveRandPartitionIndependent(t *testing.T) {
	s1 := NewSimulator(9)
	s2 := NewSimulator(9)
	// Perturb s2's global stream: derived streams must not care.
	s2.Rand().Uint64()
	a1 := s1.DeriveRand("router7")
	a2 := s2.DeriveRand("router7")
	for i := 0; i < 32; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatalf("same seed+name diverged at draw %d", i)
		}
	}
	// Different names and different seeds give different streams.
	b := s1.DeriveRand("router8")
	c := NewSimulator(10).DeriveRand("router7")
	ref := NewSimulator(9).DeriveRand("router7")
	sameB, sameC := true, true
	for i := 0; i < 32; i++ {
		v := ref.Uint64()
		if b.Uint64() != v {
			sameB = false
		}
		if c.Uint64() != v {
			sameC = false
		}
	}
	if sameB {
		t.Fatal("different names produced identical streams")
	}
	if sameC {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestEventFreeListCapped(t *testing.T) {
	// Recycling far more events than the cap must not grow the free list past
	// maxEventFreeList: burst peaks are returned to the GC.
	s := NewSimulator(1)
	r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
	for i := 0; i < 3*maxEventFreeList; i++ {
		s.Schedule(r, Time{Tick: Tick(i + 1)}, i, nil)
	}
	s.Run()
	if len(s.free) > maxEventFreeList {
		t.Fatalf("free list grew to %d, cap is %d", len(s.free), maxEventFreeList)
	}
	if len(s.free) != maxEventFreeList {
		t.Fatalf("free list holds %d after a %d-event run, want full cap %d",
			len(s.free), 3*maxEventFreeList, maxEventFreeList)
	}
}
