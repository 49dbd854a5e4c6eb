package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

// recorder is a test component that records the order of executed events.
type recorder struct {
	ComponentBase
	order []int
	times []Time
}

func (r *recorder) ProcessEvent(ev *Event) {
	r.order = append(r.order, ev.Type)
	r.times = append(r.times, ev.Time)
}

func TestSimulatorExecutesInTimeOrder(t *testing.T) {
	s := NewSimulator(1)
	r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
	// Schedule out of order, including epsilon ordering within a tick.
	s.Schedule(r, Time{10, 0}, 3, nil)
	s.Schedule(r, Time{5, 2}, 2, nil)
	s.Schedule(r, Time{5, 1}, 1, nil)
	s.Schedule(r, Time{1, 0}, 0, nil)
	s.Schedule(r, Time{10, 1}, 4, nil)
	n := s.Run()
	if n != 5 {
		t.Fatalf("Run executed %d events, want 5", n)
	}
	for i, typ := range r.order {
		if typ != i {
			t.Fatalf("execution order %v, want ascending types", r.order)
		}
	}
	if s.Now() != (Time{10, 1}) {
		t.Fatalf("Now = %v after run, want 10.1", s.Now())
	}
}

func TestSimulatorFIFOTiebreak(t *testing.T) {
	// Events at identical (tick, eps) must execute in scheduling order.
	s := NewSimulator(1)
	r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
	for i := 0; i < 50; i++ {
		s.Schedule(r, Time{7, 3}, i, nil)
	}
	s.Run()
	for i, typ := range r.order {
		if typ != i {
			t.Fatalf("FIFO violated at %d: order=%v", i, r.order[:i+1])
		}
	}
}

// chainer schedules a follow-up event from within ProcessEvent.
type chainer struct {
	ComponentBase
	remaining int
	executed  int
}

func (c *chainer) ProcessEvent(ev *Event) {
	c.executed++
	if c.remaining > 0 {
		c.remaining--
		c.Sim().Schedule(c, c.Sim().Now().Plus(1), 0, nil)
	}
}

func TestSimulatorEventChaining(t *testing.T) {
	s := NewSimulator(1)
	c := &chainer{ComponentBase: NewComponentBase(s, "chain"), remaining: 99}
	s.Schedule(c, Time{1, 0}, 0, nil)
	s.Run()
	if c.executed != 100 {
		t.Fatalf("executed %d, want 100", c.executed)
	}
	if s.Now().Tick != 100 {
		t.Fatalf("final tick %d, want 100", s.Now().Tick)
	}
}

func TestSimulatorEpsilonChainingSameTick(t *testing.T) {
	s := NewSimulator(1)
	var eps []Epsilon
	var h Handler
	h = HandlerFunc(func(ev *Event) {
		eps = append(eps, s.Now().Eps)
		if len(eps) < 4 {
			s.Schedule(h, s.Now().NextEps(), 0, nil)
		}
	})
	s.Schedule(h, Time{3, 0}, 0, nil)
	s.Run()
	want := []Epsilon{0, 1, 2, 3}
	for i := range want {
		if eps[i] != want[i] {
			t.Fatalf("epsilons %v, want %v", eps, want)
		}
	}
	if s.Now().Tick != 3 {
		t.Fatalf("tick advanced to %d during epsilon chaining", s.Now().Tick)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewSimulator(1)
	h := HandlerFunc(func(ev *Event) {
		// At time 5.0; scheduling at 5.0 or earlier must panic.
		mustPanic(t, func() { s.Schedule(ev.Handler, Time{5, 0}, 0, nil) })
		mustPanic(t, func() { s.Schedule(ev.Handler, Time{4, 9}, 0, nil) })
	})
	s.Schedule(h, Time{5, 0}, 0, nil)
	s.Run()
}

func TestScheduleNilHandlerPanics(t *testing.T) {
	s := NewSimulator(1)
	mustPanic(t, func() { s.Schedule(nil, Time{1, 0}, 0, nil) })
}

func TestSimulatorStop(t *testing.T) {
	s := NewSimulator(1)
	count := 0
	var h Handler
	h = HandlerFunc(func(ev *Event) {
		count++
		if count == 10 {
			s.Stop()
		}
		s.Schedule(h, s.Now().Plus(1), 0, nil)
	})
	s.Schedule(h, Time{1, 0}, 0, nil)
	s.Run()
	if count != 10 {
		t.Fatalf("executed %d events after Stop, want 10", count)
	}
	if !s.Stopped() {
		t.Fatal("Stopped() = false")
	}
}

func TestSimulatorRunUntil(t *testing.T) {
	s := NewSimulator(1)
	r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
	for i := 0; i < 10; i++ {
		s.Schedule(r, Time{Tick(i * 10), 0}, i, nil)
	}
	s.RunUntil(50)
	if len(r.order) != 5 {
		t.Fatalf("RunUntil(50) executed %d events, want 5 (ticks 0..40)", len(r.order))
	}
	s.Run()
	if len(r.order) != 10 {
		t.Fatalf("resume executed %d total, want 10", len(r.order))
	}
}

func TestSimulatorContextAndType(t *testing.T) {
	s := NewSimulator(1)
	type payload struct{ x int }
	got := 0
	h := HandlerFunc(func(ev *Event) {
		if ev.Type != 42 {
			t.Errorf("Type = %d", ev.Type)
		}
		got = ev.Context.(*payload).x
	})
	s.Schedule(h, Time{1, 0}, 42, &payload{x: 7})
	s.Run()
	if got != 7 {
		t.Fatalf("context payload = %d, want 7", got)
	}
}

func TestSimulatorEventRecycling(t *testing.T) {
	// Run two waves; the second wave reuses freed events. Correctness is that
	// contexts and types do not leak between waves.
	s := NewSimulator(1)
	r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
	for i := 0; i < 100; i++ {
		s.Schedule(r, Time{Tick(i + 1), 0}, i, nil)
	}
	s.Run()
	r.order = nil
	for i := 0; i < 100; i++ {
		s.Schedule(r, Time{Tick(1000 + i), 0}, 1000+i, nil)
	}
	s.Run()
	for i, typ := range r.order {
		if typ != 1000+i {
			t.Fatalf("recycled event carried stale type: %v", r.order[i])
		}
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		s := NewSimulator(seed)
		var seq []uint64
		var h Handler
		n := 0
		h = HandlerFunc(func(ev *Event) {
			v := s.Rand().Uint64()
			seq = append(seq, v)
			n++
			if n < 100 {
				s.Schedule(h, s.Now().Plus(1+v%5), 0, nil)
			}
		})
		s.Schedule(h, Time{1, 0}, 0, nil)
		s.Run()
		return seq
	}
	a, b := run(12345), run(12345)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := run(54321)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

// Property: for any multiset of scheduled times, execution happens in
// nondecreasing (tick, eps) order.
func TestSimulatorHeapOrderProperty(t *testing.T) {
	prop := func(ticks []uint16, eps []uint8) bool {
		if len(ticks) == 0 {
			return true
		}
		s := NewSimulator(7)
		r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
		for i, tk := range ticks {
			e := Epsilon(0)
			if len(eps) > 0 {
				e = Epsilon(eps[i%len(eps)])
			}
			s.Schedule(r, Time{Tick(tk) + 1, e}, i, nil)
		}
		s.Run()
		if !sort.SliceIsSorted(r.times, func(i, j int) bool { return r.times[i].Before(r.times[j]) }) {
			// equal times allowed; check non-decreasing
			for i := 1; i < len(r.times); i++ {
				if r.times[i].Before(r.times[i-1]) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestHandlerFunc(t *testing.T) {
	s := NewSimulator(1)
	fired := false
	s.Schedule(HandlerFunc(func(ev *Event) { fired = true }), Time{1, 0}, 0, nil)
	s.Run()
	if !fired {
		t.Fatal("HandlerFunc not invoked")
	}
}

func TestComponentBasePanicHelpers(t *testing.T) {
	s := NewSimulator(1)
	c := NewComponentBase(s, "unit")
	mustPanic(t, func() { c.Panicf("boom %d", 3) })
	mustPanic(t, func() { c.Assert(false, "bad") })
	c.Assert(true, "fine") // must not panic
	if c.Name() != "unit" || c.Sim() != s {
		t.Fatal("accessors wrong")
	}
}

func TestNewComponentBaseNilSimPanics(t *testing.T) {
	mustPanic(t, func() { NewComponentBase(nil, "x") })
}
