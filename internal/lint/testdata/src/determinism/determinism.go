// Package lintfixture exercises the determinism analyzer. The lint tests load
// it under a sim-core import path (supersim/internal/sim/lintfixture); it is
// never part of the build.
package lintfixture

import (
	"math/rand"
	"sync"        // uses are shardsafety's to report: no finding here
	"sync/atomic" // likewise
	"time"
)

var sink int64

func wallClock() {
	t := time.Now() // want `wall-clock read time\.Now`
	sink += t.Unix()
	d := time.Since(t) // want `wall-clock read time\.Since`
	_ = d
	_ = time.Duration(3) // a type conversion, not a clock read: no finding
}

func globalRand() {
	sink += int64(rand.Intn(8)) // want `global rand\.Intn`
	r := rand.New(rand.NewSource(42))
	sink += int64(r.Intn(8)) // methods of a seeded *rand.Rand are fine
}

func mapOrder(m map[int]int) []int {
	var order []int
	for k := range m { // want `map iteration order`
		order = append(order, k)
	}
	return order
}

func mapOK(m map[int]int) (int, map[int]int) {
	total := 0
	count := 0
	inverse := map[int]int{}
	for k, v := range m { // order-insensitive body: no finding
		total += v
		count++
		inverse[k] = v
		if v == 0 {
			delete(inverse, k)
			continue
		}
	}
	return total + count, inverse
}

func allowedWallClock() {
	//sslint:allow determinism — fixture: suppression-by-line under test
	sink += time.Now().Unix()
}

//sslint:allow determinism — fixture: function-scope suppression under test
func allowedScoped() {
	sink += time.Now().UnixNano()
}

//sslint:allow determinism — fixture: nothing to suppress; want `suppresses nothing`
func cleanFunc() int {
	return 7
}

func spawns() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want `goroutine launched`
		defer wg.Done()
		atomic.AddInt64(&sink, 1)
	}()
	wg.Wait()
}
