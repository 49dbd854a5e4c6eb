package telemetry

import (
	"strconv"
	"sync/atomic"
	"time"

	"supersim/internal/sim"
)

// EngineProbe instruments one shard of the conservative parallel engine. It
// implements sim.ShardProbe; core wires one per shard (ForEngineShard +
// Engine.SetShardProbe) whenever telemetry is attached to a parallel run.
// All metrics use component "shard<k>":
//
//	engine_rounds          counter  scheduler passes (horizon computations)
//	engine_horizon         gauge    last bounded horizon tick
//	engine_horizon_unbounded counter rounds whose horizon saturated (no
//	                                 upstream constraint)
//	engine_windows         counter  committed lookahead windows
//	engine_commit          gauge    last committed tick
//	engine_window_events   counter  non-daemon events drained by windows
//	engine_window_size     hist     events drained per window
//	engine_inbox_posts     counter  cross-shard posts into this shard
//	engine_inbox_depth     gauge    inbox occupancy after the latest post
//	engine_inbox_peak      gauge    high-water inbox occupancy
//	engine_inbox_drains    counter  non-empty inbox batches applied
//	engine_inbox_batch     hist     posts applied per batch
//	engine_stalls          counter  times the worker parked lookahead-blocked
//	engine_blocked_ns      counter  wall nanoseconds spent parked
//	engine_quiesce_checks  counter  global work-count polls
//
// Counter/gauge values are registry atomics and InboxPost touches nothing
// else, so the one method invoked from foreign (posting) goroutines is safe
// without extra locking; blocked-time bookkeeping is confined to the owning
// worker goroutine. The wall-clock read for engine_blocked_ns lives here, in
// the observation layer, keeping internal/sim free of time.Now — and making
// engine_blocked_ns the one engine metric that is wall-clock- rather than
// schedule-determined.
type EngineProbe struct {
	rounds       *Counter
	horizon      *Gauge
	unbounded    *Counter
	windows      *Counter
	commit       *Gauge
	windowEvents *Counter
	windowSize   *Histogram
	inboxPosts   *Counter
	inboxDepth   *Gauge
	inboxPeakG   *Gauge
	inboxDrains  *Counter
	inboxBatch   *Histogram
	stalls       *Counter
	blockedNS    *Counter
	quiesce      *Counter

	// peak is the CAS-max high-water inbox occupancy, maintained by posting
	// goroutines and mirrored into inboxPeakG by the owning worker (a gauge
	// has no atomic-max, and mirroring from posters would race).
	peak atomic.Int64

	// blockedSince is only touched by the owning worker goroutine.
	blockedSince time.Time
}

// ForEngineShard returns the engine probe for shard k, registering its
// metrics in t's registry.
func ForEngineShard(t *Telemetry, k int) *EngineProbe {
	comp := "shard" + strconv.Itoa(k)
	return &EngineProbe{
		rounds:       t.reg.Counter("engine_rounds", comp, -1, 0),
		horizon:      t.reg.Gauge("engine_horizon", comp, -1),
		unbounded:    t.reg.Counter("engine_horizon_unbounded", comp, -1, 0),
		windows:      t.reg.Counter("engine_windows", comp, -1, 0),
		commit:       t.reg.Gauge("engine_commit", comp, -1),
		windowEvents: t.reg.Counter("engine_window_events", comp, -1, 0),
		windowSize:   t.reg.Histogram("engine_window_size", comp, -1),
		inboxPosts:   t.reg.Counter("engine_inbox_posts", comp, -1, 0),
		inboxDepth:   t.reg.Gauge("engine_inbox_depth", comp, -1),
		inboxPeakG:   t.reg.Gauge("engine_inbox_peak", comp, -1),
		inboxDrains:  t.reg.Counter("engine_inbox_drains", comp, -1, 0),
		inboxBatch:   t.reg.Histogram("engine_inbox_batch", comp, -1),
		stalls:       t.reg.Counter("engine_stalls", comp, -1, 0),
		blockedNS:    t.reg.Counter("engine_blocked_ns", comp, -1, 0),
		quiesce:      t.reg.Counter("engine_quiesce_checks", comp, -1, 0),
	}
}

// Round implements sim.ShardProbe.
func (p *EngineProbe) Round(horizon sim.Tick, saturated bool) {
	if p == nil {
		return
	}
	p.rounds.Inc()
	if saturated {
		p.unbounded.Inc()
	} else {
		p.horizon.Set(int64(horizon))
	}
	p.inboxPeakG.Set(p.peak.Load())
}

// WindowCommitted implements sim.ShardProbe.
func (p *EngineProbe) WindowCommitted(commit sim.Tick, events uint64) {
	if p == nil {
		return
	}
	p.windows.Inc()
	p.commit.Set(int64(commit))
	p.windowEvents.Add(events)
	p.windowSize.Observe(events)
}

// InboxPost implements sim.ShardProbe. It runs on the posting shard's
// goroutine.
func (p *EngineProbe) InboxPost(depth int) {
	if p == nil {
		return
	}
	p.inboxPosts.Inc()
	d := int64(depth)
	p.inboxDepth.Set(d)
	for {
		old := p.peak.Load()
		if old >= d || p.peak.CompareAndSwap(old, d) {
			return
		}
	}
}

// InboxDrained implements sim.ShardProbe.
func (p *EngineProbe) InboxDrained(batch int) {
	if p == nil {
		return
	}
	p.inboxDrains.Inc()
	p.inboxBatch.Observe(uint64(batch))
	p.inboxDepth.Set(0)
}

// BlockedEnter implements sim.ShardProbe.
func (p *EngineProbe) BlockedEnter() {
	if p == nil {
		return
	}
	p.stalls.Inc()
	p.blockedSince = time.Now()
}

// BlockedExit implements sim.ShardProbe.
func (p *EngineProbe) BlockedExit() {
	if p == nil {
		return
	}
	p.blockedNS.Add(uint64(time.Since(p.blockedSince).Nanoseconds()))
}

// QuiesceCheck implements sim.ShardProbe.
func (p *EngineProbe) QuiesceCheck(bool) {
	if p == nil {
		return
	}
	p.quiesce.Inc()
}

// ShardDoc is one shard's introspection document, served as JSON at /shards.
// Commit/Pending/InboxDepth come from the engine's live state; the remaining
// fields are the shard's engine_* metric values.
type ShardDoc struct {
	ID         int    `json:"id"`
	Routers    []int  `json:"routers,omitempty"`
	Commit     uint64 `json:"commit"`
	Pending    int64  `json:"pending"`
	InboxDepth int    `json:"inbox_depth"`
	InboxPeak  int64  `json:"inbox_peak"`
	InboxPosts uint64 `json:"inbox_posts"`
	Rounds     uint64 `json:"rounds"`
	Windows    uint64 `json:"windows"`
	Events     uint64 `json:"window_events"`
	Stalls     uint64 `json:"stalls"`
	BlockedNS  uint64 `json:"blocked_ns"`
}

// shardReg is one registered shard's introspection wiring.
type shardReg struct {
	id      int
	routers []int
	status  func() sim.ShardStatus
	probe   *EngineProbe
}

// RegisterShard wires shard id into the /shards introspection document:
// routers is the shard's router assignment, status reads the engine's live
// shard state, probe supplies the engine metrics. Core calls it once per
// shard while assembling a parallel run.
func (t *Telemetry) RegisterShard(id int, routers []int, status func() sim.ShardStatus, probe *EngineProbe) {
	t.mu.Lock()
	t.shardRegs = append(t.shardRegs, shardReg{id: id, routers: routers, status: status, probe: probe})
	t.mu.Unlock()
}

// ShardDocs returns the current per-shard introspection documents, in shard
// order. Serial runs return an empty slice. Safe to call from the HTTP
// goroutine while the engine runs.
func (t *Telemetry) ShardDocs() []ShardDoc {
	t.mu.Lock()
	regs := t.shardRegs
	t.mu.Unlock()
	docs := make([]ShardDoc, 0, len(regs))
	for _, r := range regs {
		st := r.status()
		docs = append(docs, ShardDoc{
			ID:         r.id,
			Routers:    r.routers,
			Commit:     uint64(st.Commit),
			Pending:    st.Pending,
			InboxDepth: st.InboxDepth,
			InboxPeak:  r.probe.peak.Load(),
			InboxPosts: r.probe.inboxPosts.Load(),
			Rounds:     r.probe.rounds.Load(),
			Windows:    r.probe.windows.Load(),
			Events:     r.probe.windowEvents.Load(),
			Stalls:     r.probe.stalls.Load(),
			BlockedNS:  r.probe.blockedNS.Load(),
		})
	}
	return docs
}
