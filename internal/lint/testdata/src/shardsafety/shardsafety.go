// Package lintfixture exercises the shardsafety analyzer. link mirrors
// channel.Channel: a shard-spanning component whose inbox methods own
// pending/head/scheduled, with a remote-port guard making the local path
// provably single-shard. The sync/atomic cases exercise the access-level
// confinement that catches promoted methods no import line reveals. Never
// part of the build.
package lintfixture

import (
	"sync"
	"sync/atomic"

	"supersim/internal/sim"
)

// link is a shard-spanning component: remote is non-nil when its inbox
// methods run on another shard's goroutine.
type link struct {
	sim.ComponentBase
	remote    *sim.RemotePort
	pending   []int
	head      int
	scheduled bool
	nextSlot  int // source-owned: never written by the inbox methods
}

func (l *link) SetRemote(p *sim.RemotePort) { l.remote = p }

// ReceiveRemote and ProcessEvent are the inbox methods; the fields they
// write become destination-owned.
func (l *link) ReceiveRemote(at sim.Tick, ptr any, aux int) {
	l.pending = append(l.pending, aux)
	if !l.scheduled {
		l.scheduled = true
	}
}

func (l *link) ProcessEvent(ev *sim.Event) {
	l.head++
	if l.head == len(l.pending) {
		l.pending = l.pending[:0]
		l.head = 0
		l.scheduled = false
	}
}

// injectUnguarded races: on the source shard these fields belong to the
// destination's goroutine.
func (l *link) injectUnguarded(v int) {
	l.pending = append(l.pending, v) // want `write to link\.pending outside the inbox methods`
	l.scheduled = true               // want `write to link\.scheduled outside the inbox methods`
}

// injectGuarded is the sanctioned shape: cross-shard traffic goes through
// the RemotePort seam, and the fall-through proves remote == nil, so the
// local writes and the destination-bound clock read cannot race.
func (l *link) injectGuarded(v int) {
	if l.remote != nil {
		l.remote.Send(sim.Tick(v), nil, v)
		return
	}
	l.pending = append(l.pending, v)
	l.scheduled = true
	_ = l.Sim().Now()
}

func (l *link) clockUnguarded() sim.Time {
	return l.Sim().Now() // want `l\.Sim\(\) on a shard-spanning component outside the inbox methods`
}

func (l *link) panicUnguarded() {
	l.Panicf("boom") // want `l\.Panicf\(\) on a shard-spanning component outside the inbox methods`
}

func (l *link) panicGuarded() {
	if l.remote != nil {
		return
	}
	l.Panicf("local only")
}

// sourceSide writes a field the inbox methods never touch — source-owned,
// unconstrained.
func (l *link) sourceSide(v int) {
	l.nextSlot = v
}

// Collect runs while the engine is quiesced and is exempt.
func (l *link) Collect(xs []int) {
	l.pending = append(l.pending, xs...)
}

// local has no RemotePort field: single-shard by construction, so its
// ProcessEvent-written fields are unconstrained.
type local struct {
	sim.ComponentBase
	pending []int
}

func (n *local) ProcessEvent(ev *sim.Event) { n.pending = n.pending[:0] }

func (n *local) inject(v int) {
	n.pending = append(n.pending, v)
	_ = n.Sim().Now()
}

// counter embeds a mutex: the Lock/Unlock calls are promoted sync methods
// that the import-level determinism check cannot see from the call site.
type counter struct {
	sync.Mutex // want `use of sync\.Mutex in sim-core package`
	n          int
}

func (c *counter) bump() {
	c.Lock() // want `use of sync\.Lock in sim-core package`
	c.n++
	c.Unlock() // want `use of sync\.Unlock in sim-core package`
}

var total atomic.Uint64 // want `use of sync/atomic\.Uint64 in sim-core package`

func addTotal() {
	total.Add(1) // want `use of sync/atomic\.Add in sim-core package`
}

// spawnCount carries the sync uses of the determinism fixture's spawns: this
// rule reports each of them, and determinism reports only the goroutine.
func spawnCount() {
	var wg sync.WaitGroup // want `use of sync\.WaitGroup in sim-core package`
	wg.Add(1)             // want `use of sync\.Add in sim-core package`
	func() {
		defer wg.Done()               // want `use of sync\.Done in sim-core package`
		atomic.AddUint64(&scratch, 1) // want `use of sync/atomic\.AddUint64 in sim-core package`
	}()
	wg.Wait() // want `use of sync\.Wait in sim-core package`
}

var scratch uint64
