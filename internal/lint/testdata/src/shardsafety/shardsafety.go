// Package lintfixture exercises the shardsafety analyzer: the sync/atomic
// cases exercise the access-level confinement that catches promoted methods
// no import line reveals. Never part of the build.
package lintfixture

import (
	"sync"
	"sync/atomic"
)

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
