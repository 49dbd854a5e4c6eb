package sim

// Handler is anything that can execute events. Components embed ComponentBase
// and implement ProcessEvent to receive the events they scheduled.
type Handler interface {
	// ProcessEvent executes an event previously scheduled by this handler.
	// The event object is owned by the simulator and recycled after the call
	// returns; handlers must not retain it.
	ProcessEvent(ev *Event)
}

// Event is a unit of future work in the simulation. It carries its execution
// time, the handler that will perform the execution, and optional handler
// specific data (an integer type tag and a context pointer).
type Event struct {
	Time    Time
	Handler Handler
	Type    int
	Context any

	// owner and oseq are the deterministic tiebreak among events at an
	// identical (tick, epsilon): owner is the scheduling handler's
	// construction-order key and oseq its per-handler schedule counter.
	// Unlike a global schedule-order sequence, this key is independent of
	// the interleaving of *different* handlers' Schedule calls — which is
	// what makes sharded parallel execution (see parallel.go) reproduce the
	// serial event order exactly: each shard assigns the same (owner, oseq)
	// pairs the serial run would, no matter how worker goroutines interleave.
	owner  uint32
	oseq   uint64
	daemon bool // scheduled with ScheduleDaemon; excluded from PendingNonDaemon
}

// heapEntry stores an event's ordering key inline so heap comparisons touch
// contiguous memory instead of chasing event pointers — the event queue is
// the simulator's hottest data structure by far. The struct stays 32 bytes:
// the old global sequence split into (owner, oseq) fills the slot that used
// to be padding plus the seq word.
type heapEntry struct {
	tick  Tick
	eps   Epsilon
	owner uint32
	oseq  uint64
	ev    *Event
}

// entryLess orders events by (tick, epsilon, owner, oseq). Two events of the
// same handler at the same time execute in schedule order (oseq); events of
// different handlers at the same time execute in handler construction order
// (owner), which is fixed at build time and therefore identical no matter
// how the simulation is partitioned across shards.
func entryLess(a, b *heapEntry) bool {
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	if a.eps != b.eps {
		return a.eps < b.eps
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	return a.oseq < b.oseq
}

// eventHeap is a binary min-heap of events ordered by (tick, epsilon, owner,
// oseq). It is implemented directly (rather than via container/heap) to avoid
// interface conversions on the hot path.
type eventHeap struct {
	a []heapEntry
}

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) push(e *Event) {
	h.a = append(h.a, heapEntry{tick: e.Time.Tick, eps: e.Time.Eps, owner: e.owner, oseq: e.oseq, ev: e})
	// sift up
	a := h.a
	i := len(a) - 1
	item := a[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(&item, &a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = item
}

func (h *eventHeap) pop() *Event {
	a := h.a
	n := len(a)
	top := a[0].ev
	last := a[n-1]
	a[n-1].ev = nil
	h.a = a[:n-1]
	n--
	if n == 0 {
		return top
	}
	// sift down the previous last element
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		m := l
		if r < n && entryLess(&a[r], &a[l]) {
			m = r
		}
		if !entryLess(&a[m], &last) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = last
	return top
}

func (h *eventHeap) peek() *Event {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0].ev
}
