package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"supersim/internal/config"
	"supersim/internal/core"
)

// runSample is one Build+Run of a workload's settings document.
type runSample struct {
	input    int       // which of the seed's inputs ran
	start    time.Time // when Build began
	runStart time.Time // when Run began
	buildS   float64   // host seconds in core.Build
	runS     float64   // host seconds in Simulation.Run
	cpuS     float64   // process user+sys CPU seconds during Run
	mallocs  uint64    // heap objects allocated during Run
	bytes    uint64    // heap bytes allocated during Run
	out      outcome
}

// hooks are the attachment points around one measured run. Each is
// optional.
type hooks struct {
	before   func()                    // before the heap is collected and Build starts
	built    func(sm *core.Simulation) // after Build, before the Run clock starts
	starting func()                    // immediately before Run
	finished func()                    // immediately after Run
	after    func(r runSample)         // after a run passed the oracle
}

// measureRun builds and runs one simulation. The heap is collected first, so
// every run starts from the state a fresh process would; set-up and run are
// timed separately. Panics from Build or Run are returned as errors.
func measureRun(cfg *config.Settings, h hooks) (r runSample, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if h.before != nil {
		h.before()
	}
	runtime.GC()
	r.start = time.Now()
	sm := core.Build(cfg)
	r.buildS = time.Since(r.start).Seconds()
	if h.built != nil {
		h.built(sm)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	if h.starting != nil {
		h.starting()
	}
	r.runStart = time.Now()
	res, err := sm.Run()
	r.runS = time.Since(r.runStart).Seconds()
	if h.finished != nil {
		h.finished()
	}
	r.cpuS = cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	if err != nil {
		return r, err
	}
	r.out = collectOutcome(sm, res)
	return r, nil
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's maximum resident set size in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// runSet is the outcome of a sequence of measured runs of one input.
type runSet struct {
	ok        []runSample
	attempted int
	failed    int
	errs      []string
}

// inputsPerSeed is how many simulation inputs one benchmark seed stands
// for. Runs cycle through them, so a pass's medians average over several
// inputs instead of resting on one input's luck: on torus_iq_m32 the flits a
// single input delivers vary by about 13% from seed to seed.
const inputsPerSeed = 4

// simSeed is the simulation.seed of input j of a benchmark seed. Input 0 of
// the default seed is simulation seed 1, whose digests are committed.
func simSeed(seed uint64, j int) uint64 { return (seed-1)*inputsPerSeed + uint64(j) + 1 }

// runFor measures runs until the budget is spent and at least minRuns have
// been attempted, cycling through the seed's inputs.
func runFor(b bench, budget time.Duration, minRuns int, refs map[int]string, h hooks) runSet {
	var rs runSet
	deadline := time.Now().Add(budget)
	for i := 0; i < minRuns || time.Now().Before(deadline); i++ {
		deadline = deadline.Add(rs.runOne(b, i%inputsPerSeed, refs, h))
	}
	return rs
}

// runOne measures one run of input j and checks it against the oracle. refs
// holds each input's reference digest, which every run of that input must
// reproduce: the serial run of the same model for a parallel workload,
// otherwise the input's first passing run. It returns the time spent on a
// serial reference run, which is not part of any budget.
func (rs *runSet) runOne(b bench, j int, refs map[int]string, h hooks) time.Duration {
	var refTime time.Duration
	if _, ok := refs[j]; !ok && b.w.workers > 1 {
		t0 := time.Now()
		refs[j] = rs.serialReference(b, j)
		refTime = time.Since(t0)
	}
	rs.attempted++
	r, err := measureRun(b.settings(j), h)
	r.input = j
	if err == nil {
		err = r.out.check(b.w, simSeed(b.seed, j), b.sample == 0, refs[j])
	}
	if err != nil {
		rs.failed++
		rs.errs = append(rs.errs, fmt.Sprintf("input %d: %v", j, err))
		return refTime
	}
	if refs[j] == "" {
		refs[j] = r.out.digest()
	}
	if h.after != nil {
		h.after(r)
	}
	rs.ok = append(rs.ok, r)
	return refTime
}

func (rs *runSet) merge(o runSet) {
	rs.ok = append(rs.ok, o.ok...)
	rs.attempted += o.attempted
	rs.failed += o.failed
	rs.errs = append(rs.errs, o.errs...)
}

// serialReference runs input j of a parallel workload on the serial path and
// returns its digest ("" if the run failed, which is recorded as a failed
// attempt).
func (rs *runSet) serialReference(b bench, j int) string {
	cfg := b.settings(j)
	cfg.Set("simulation.workers", 1)
	rs.attempted++
	r, err := measureRun(cfg, hooks{})
	if err == nil {
		err = r.out.check(b.w, simSeed(b.seed, j), false, "")
	}
	if err != nil {
		rs.failed++
		rs.errs = append(rs.errs, fmt.Sprintf("input %d serial reference: %v", j, err))
		return ""
	}
	return r.out.digest()
}

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic with at least ten runs above it,
// and its percentile. With ten runs or fewer it is the maximum.
func tail(xs []float64) (value, percentile float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	rank := n - 10 // 1-based: ten values lie beyond it
	if rank < 1 {
		rank = n
	}
	return s[rank-1], 100 * float64(rank) / float64(n)
}

func column(rs []runSample, f func(runSample) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}
