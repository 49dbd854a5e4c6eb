package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"supersim/internal/core"
	"supersim/internal/sim"
	"supersim/internal/telemetry"
	"supersim/internal/workload/apps"
)

// pendingEvery is the pending-queue sampling period in ticks.
const pendingEvery = 16

// span is one timed region of the traced pass, recorded around the
// benchmark's own calls into the simulator. Spans of one run share RunID;
// they stay in memory during the pass and are written at its end.
type span struct {
	Name    string `json:"name"`
	RunID   string `json:"run_id"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"` // since the traced pass began
	EndNS   int64  `json:"end_ns"`
}

// tracedRun is what the traced pass reads from one run.
type tracedRun struct {
	sm           *core.Simulation
	profile      bytes.Buffer
	profileErr   error
	pendingSum   float64
	pendingN     int
	summarizeS   float64
	channelFlits uint64
	poolGets     uint64
	poolHits     uint64
	generated    uint64
	skipped      uint64
	shards       []telemetry.ShardDoc
}

// pendingSampler is a daemon handler owned by the benchmark: every
// pendingEvery ticks it samples the host simulator's queue depth, and it
// re-arms only while real work remains, so it never extends a run.
type pendingSampler struct {
	s        *sim.Simulator
	parallel bool
	h        sim.Handler
	tr       *tracedRun
}

func (p *pendingSampler) sample(*sim.Event) {
	n := p.s.Pending()
	if p.parallel {
		// The host shard's queue alone misses the router shards; this count
		// adds their last published depth.
		n = p.s.PendingNonDaemon()
	}
	p.tr.pendingSum += float64(n)
	p.tr.pendingN++
	if p.s.PendingNonDaemon() > 0 {
		p.s.ScheduleDaemon(p.h, p.s.Now().Plus(pendingEvery), 0, nil)
	}
}

// traced is the traced pass. It alternates untraced runs, the base of
// trace.overhead_ratio and sim.events_per_s, with traced runs (CPU profile of
// Run, pending sampler, spans, and on parallel workloads the engine's shard
// probes through telemetry), so drift in the host's speed affects both
// alike. The layer drivers run last, shaped by what the traced runs
// measured.
func traced(b bench) (result, map[string]any, []span) {
	epoch := time.Now()
	refs := map[int]string{}
	var base, tset runSet

	var runs []*tracedRun
	var spans []span
	tb := b
	tb.telemetry = b.w.workers > 1
	var cur *tracedRun
	h := hooks{
		built: func(sm *core.Simulation) {
			cur = &tracedRun{sm: sm}
			ps := &pendingSampler{s: sm.Sim, parallel: sm.Shards != nil, tr: cur}
			ps.h = sim.HandlerFunc(ps.sample)
			sm.Sim.ScheduleDaemon(ps.h, sim.Time{Tick: pendingEvery}, 0, nil)
		},
		starting: func() {
			cur.profileErr = pprof.StartCPUProfile(&cur.profile)
		},
		finished: func() {
			pprof.StopCPUProfile()
			// Time Summarize on the run's own recorder, before the oracle
			// reads it (the recorder caches its sorted latencies).
			t0 := time.Now()
			for i := 0; i < cur.sm.Workload.NumApps(); i++ {
				if bl, ok := cur.sm.Workload.App(i).(*apps.Blast); ok {
					bl.Stats().Summarize()
				}
			}
			cur.summarizeS = time.Since(t0).Seconds()
		},
		after: func(r runSample) {
			readCounters(cur)
			cur.sm = nil // keep no finished simulation alive into later runs
			id := fmt.Sprintf("%s/seed%d/input%d/run%d", b.w.name, b.seed, r.input, len(runs))
			rel := func(t time.Time) int64 { return t.Sub(epoch).Nanoseconds() }
			built := r.start.Add(time.Duration(r.buildS * 1e9))
			ran := r.runStart.Add(time.Duration(r.runS * 1e9))
			now := time.Now()
			spans = append(spans,
				span{Name: "traced_run", RunID: id, StartNS: rel(r.start), EndNS: rel(now)},
				span{Name: "build", RunID: id, Parent: "traced_run", StartNS: rel(r.start), EndNS: rel(built)},
				span{Name: "run", RunID: id, Parent: "traced_run", StartNS: rel(r.runStart), EndNS: rel(ran)},
				span{Name: "report", RunID: id, Parent: "traced_run", StartNS: rel(ran), EndNS: rel(now)})
			runs = append(runs, cur)
		},
	}
	deadline := epoch.Add(b.seconds)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		j := i % inputsPerSeed
		deadline = deadline.Add(base.runOne(b, j, refs, hooks{}))
		deadline = deadline.Add(tset.runOne(tb, j, refs, h))
	}
	var rs runSet
	rs.merge(base)
	rs.merge(tset)

	m := metrics{}
	layerMetrics(m, b, base.ok, tset.ok, runs)
	extra := map[string]any{
		"untraced_runs": len(base.ok),
		"traced_runs":   len(tset.ok),
		"digests":       refs,
	}
	if len(rs.errs) > 0 {
		extra["errors"] = rs.errs
	}
	ok := rs.failed == 0 && len(tset.ok) > 0
	for _, r := range runs {
		if r.profileErr != nil {
			ok = false
			extra["profile_error"] = r.profileErr.Error()
		}
	}
	return result{Correct: ok, Attempted: rs.attempted, Failed: rs.failed, Metrics: m}, extra, spans
}

// readCounters reads the layers' public counters after a traced run.
func readCounters(tr *tracedRun) {
	sm := tr.sm
	for _, ch := range sm.Net.Channels() {
		tr.channelFlits += ch.Injected()
	}
	ps := sm.Workload.Pool().Stats()
	tr.poolGets, tr.poolHits = ps.Gets, ps.Hits
	for i := 0; i < sm.Workload.NumApps(); i++ {
		if bl, ok := sm.Workload.App(i).(*apps.Blast); ok {
			tr.generated += bl.Generated()
			tr.skipped += bl.Skipped()
		}
	}
	if sm.Telemetry != nil && sm.Shards != nil {
		tr.shards = sm.Telemetry.ShardDocs()
	}
}

// layerMetrics derives the per-layer metrics from the untraced runs (base),
// the traced runs and their per-run reads, then runs the layer drivers.
func layerMetrics(m metrics, b bench, base, tset []runSample, runs []*tracedRun) {
	perRun := func(f func(r runSample, tr *tracedRun) float64) float64 {
		var xs []float64
		for i, r := range tset {
			xs = append(xs, f(r, runs[i]))
		}
		return median(xs)
	}
	flits := func(r runSample) float64 { return float64(r.out.FlitsRecv) }

	// Event queue.
	m.set("sim.events", perRun(func(r runSample, _ *tracedRun) float64 { return float64(r.out.Events) }), "count")
	m.set("sim.events_per_flit", perRun(func(r runSample, _ *tracedRun) float64 {
		return float64(r.out.Events) / flits(r)
	}), "events/flit")
	m.set("sim.events_per_s", median(column(base, func(r runSample) float64 {
		return float64(r.out.Events) / r.runS
	})), "1/s")
	pendingMean := perRun(func(_ runSample, tr *tracedRun) float64 {
		return tr.pendingSum / float64(tr.pendingN)
	})
	m.set("sim.pending_mean", pendingMean, "events")

	// CPU attribution over every traced run's profile.
	ns := map[string]int64{}
	var total int64
	for _, tr := range runs {
		if p, err := parseProfile(tr.profile.Bytes()); err == nil {
			layerTimes(p, ns)
		} else {
			tr.profileErr = err
		}
	}
	for _, v := range ns {
		total += v
	}
	cpuS := perRun(func(r runSample, _ *tracedRun) float64 { return r.cpuS })
	for _, l := range layers {
		share := float64(ns[l]) / float64(total)
		m.set(l+".cpu_share", share, "share")
		m.set(l+".self_s", share*cpuS, "s")
	}
	m.set("trace.cpu_s", cpuS, "s")
	m.set("trace.profile_s", float64(total)/1e9, "s")

	// Parallel engine, from the shard probes (zero on serial workloads).
	m.set("engine.blocked_share", perRun(func(r runSample, tr *tracedRun) float64 {
		return engineOf(r, tr).blockedShare
	}), "share")
	m.set("engine.events_per_window", perRun(func(r runSample, tr *tracedRun) float64 {
		return engineOf(r, tr).eventsPerWindow
	}), "events")
	m.set("engine.inbox_posts_per_flit", perRun(func(r runSample, tr *tracedRun) float64 {
		return engineOf(r, tr).postsPerFlit
	}), "1/flit")
	m.set("engine.shard_event_balance", perRun(func(r runSample, tr *tracedRun) float64 {
		return engineOf(r, tr).balance
	}), "ratio")

	// Layer counters.
	m.set("channel.flits", perRun(func(_ runSample, tr *tracedRun) float64 { return float64(tr.channelFlits) }), "count")
	m.set("netiface.flits_received", perRun(func(r runSample, _ *tracedRun) float64 { return flits(r) }), "count")
	m.set("types.pool.hit_ratio", perRun(func(_ runSample, tr *tracedRun) float64 {
		return float64(tr.poolHits) / float64(tr.poolGets)
	}), "ratio")
	m.set("workload.messages", perRun(func(_ runSample, tr *tracedRun) float64 { return float64(tr.generated) }), "count")
	m.set("workload.refused_ratio", perRun(func(_ runSample, tr *tracedRun) float64 {
		return float64(tr.skipped) / float64(tr.generated+tr.skipped)
	}), "ratio")
	m.set("stats.summarize_ms", perRun(func(_ runSample, tr *tracedRun) float64 { return tr.summarizeS * 1e3 }), "ms")

	// Allocation.
	m.set("alloc.objects_per_flit", perRun(func(r runSample, _ *tracedRun) float64 {
		return float64(r.mallocs) / flits(r)
	}), "count/flit")
	m.set("alloc.bytes_per_flit", perRun(func(r runSample, _ *tracedRun) float64 {
		return float64(r.bytes) / flits(r)
	}), "B/flit")

	// Tracing cost: traced Run time over the untraced median.
	m.set("trace.overhead_ratio", median(column(tset, func(r runSample) float64 { return r.runS }))/
		median(column(base, func(r runSample) float64 { return r.runS })), "ratio")

	// Layer drivers.
	q := queueDriver(b.seed, int(pendingMean+0.5), b.w.queueMix)
	m.set("sim.queue.ns_per_event", q.ns, "ns")
	m.set("sim.queue.allocs_per_event", q.allocs, "count")
	d := delayedDriver()
	m.set("congestion.delayed.ns_per_op", d.ns, "ns")
	m.set("congestion.delayed.allocs_per_op", d.allocs, "count")
	p := poolDriver(b.w.msgFlits)
	m.set("types.pool.ns_per_message", p.ns, "ns")
	m.set("types.pool.allocs_per_message", p.allocs, "count")
	a := allocatorDriver(b.seed, b.w.radix)
	m.set("allocator.ns_per_allocate", a.ns, "ns")
	m.set("allocator.allocs_per_allocate", a.allocs, "count")
}

type engineStats struct {
	blockedShare    float64 // parked wall time over shards x run time
	eventsPerWindow float64 // non-daemon events per committed lookahead window
	postsPerFlit    float64 // cross-shard inbox posts per delivered flit
	balance         float64 // busiest shard's events over the mean; 1 is even
}

// engineOf reads one run's shard documents; all zero on a serial run.
func engineOf(r runSample, tr *tracedRun) engineStats {
	var es engineStats
	n := float64(len(tr.shards))
	if n == 0 {
		return es
	}
	var blocked, windows, events, posts uint64
	var busiest float64
	for _, d := range tr.shards {
		blocked += d.BlockedNS
		windows += d.Windows
		events += d.Events
		posts += d.InboxPosts
		busiest = max(busiest, float64(d.Events))
	}
	es.blockedShare = float64(blocked) / 1e9 / (r.runS * n)
	if windows > 0 {
		es.eventsPerWindow = float64(events) / float64(windows)
	}
	es.postsPerFlit = float64(posts) / float64(r.out.FlitsRecv)
	if events > 0 {
		es.balance = busiest / (float64(events) / n)
	}
	return es
}
