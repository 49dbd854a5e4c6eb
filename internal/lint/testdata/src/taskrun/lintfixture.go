package lintfixture

import (
	"sync"
	"time"
)

// Outside the two allowlisted files the package is ordinary sim-core: the
// journal bytes are golden-compared, so wall-clock reads, ad-hoc goroutines,
// sync uses and order-sensitive map iteration are all flagged here.

var flagMu sync.Mutex // want `use of sync\.Mutex in sim-core package`

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `wall-clock read time\.Since`
}

func spawn(fn func()) {
	flagMu.Lock()         // want `use of sync\.Lock in sim-core package`
	defer flagMu.Unlock() // want `use of sync\.Unlock in sim-core package`
	go fn()               // want `goroutine launched`
}

// emit appends in map order — observable nondeterminism in journal output.
func emit(resources map[string]int) []string {
	var out []string
	for name := range resources { // want `map iteration order`
		out = append(out, name)
	}
	return out
}

// release subtracts demands back into the pool: -= commutes, so this
// map-range is order-insensitive and must NOT be flagged.
func release(demand map[string]int, avail map[string]int) {
	for res, n := range demand {
		avail[res] -= n
	}
}
