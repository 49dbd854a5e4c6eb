package telemetry

import (
	"sort"

	"supersim/internal/sim"
	"supersim/internal/snapshot"
)

// Checkpoint state for the observability subsystem. The registry serializes
// every metric's identity (name, component, vc, kind, scale) along with its
// value, so metrics registered dynamically during the run (the span
// histograms) are re-created at restore; construction-time metrics are
// matched through the registry's idempotent registration. Wall-clock progress
// bookkeeping and the output streams themselves are not state — a restored
// run re-emits from the restore point on its own writers.

// SaveState serializes one metric's identity and value.
//
//sslint:allow snapshotcomplete — restored by Registry.LoadState, which re-registers each metric from the identity stream rather than decoding onto an existing one
func (m *metric) saveState(e *snapshot.Encoder) {
	e.Str(m.name)
	e.Str(m.comp)
	e.Int(m.vc)
	e.Int(int(m.kind))
	e.F64(m.scale)
	switch m.kind {
	case KindCounter:
		e.U64(m.c.Load())
		e.U64(m.lastC)
	case KindGauge:
		e.I64(m.g.Load())
		e.I64(m.lastG)
	case KindHist:
		nz := 0
		for i := 0; i < histBuckets; i++ {
			if m.h.Bucket(i) != 0 {
				nz++
			}
		}
		e.Int(nz)
		for i := 0; i < histBuckets; i++ {
			if n := m.h.Bucket(i); n != 0 {
				e.Int(i)
				e.U64(n)
			}
		}
		e.U64(m.h.Count())
		e.U64(m.h.Sum())
		e.U64(m.lastH)
	}
}

// SaveState serializes every registered metric in deterministic (name, comp,
// vc) order.
func (r *Registry) SaveState(e *snapshot.Encoder) {
	r.mu.Lock()
	list := append([]*metric(nil), r.sortLocked()...)
	r.mu.Unlock()
	e.Int(len(list))
	for _, m := range list {
		m.saveState(e)
	}
}

// LoadState restores metric values onto the rebuilt registry. Metrics absent
// from the rebuilt registry (registered dynamically after construction in the
// original run) are created; a kind clash with an existing registration is an
// error rather than the registry's usual panic.
func (r *Registry) LoadState(d *snapshot.Decoder) error {
	n := d.Count()
	if d.Err() != nil {
		return d.Err()
	}
	for i := 0; i < n; i++ {
		name := d.Str()
		comp := d.Str()
		vc := d.Int()
		kind := d.Int()
		scale := d.F64()
		if d.Err() != nil {
			return d.Err()
		}
		if kind < int(KindCounter) || kind > int(KindHist) {
			return d.Failf("metric %s/%s has invalid kind %d", name, comp, kind)
		}
		r.mu.Lock()
		existing, ok := r.index[metricKey(name, comp, vc)]
		r.mu.Unlock()
		if ok && existing.kind != Kind(kind) {
			return d.Failf("metric %s/%s is a %v in the snapshot, %v in the rebuilt registry",
				name, comp, Kind(kind), existing.kind)
		}
		m := r.register(name, comp, vc, Kind(kind), scale)
		switch m.kind {
		case KindCounter:
			m.c.v.Store(d.U64())
			m.lastC = d.U64()
		case KindGauge:
			m.g.v.Store(d.I64())
			m.lastG = d.I64()
		case KindHist:
			nz := d.Count()
			if d.Err() != nil {
				return d.Err()
			}
			for b := range m.h.buckets {
				m.h.buckets[b].Store(0)
			}
			for j := 0; j < nz; j++ {
				idx := d.Int()
				if d.Err() != nil {
					return d.Err()
				}
				if idx < 0 || idx >= histBuckets {
					return d.Failf("metric %s/%s bucket index %d out of range", name, comp, idx)
				}
				m.h.buckets[idx].Store(d.U64())
			}
			m.h.count.Store(d.U64())
			m.h.sum.Store(d.U64())
			m.lastH = d.U64()
		}
		if d.Err() != nil {
			return d.Err()
		}
	}
	return d.Err()
}

// SaveState serializes the telemetry hub: its construction-order identity,
// the baseline flag for the next snapshot bin, the registry, and the span
// recorder's in-flight state.
func (t *Telemetry) SaveState(e *snapshot.Encoder) {
	// Under a parallel engine, flush the per-shard observation lanes first:
	// the checkpoint barrier guarantees every recorded stamp is below the
	// snapshot time, so sealing here emits exactly the serial prefix and the
	// serialized registry/span state matches a serial run's.
	t.seal()
	t.SaveOrder(e)
	e.Bool(t.first)
	// Schema v1 has a slot for the workload phase here; progress reads the
	// phase from the workload, so the slot stays empty.
	e.Str("")
	t.reg.SaveState(e)
	if sp := t.opts.Spans; sp != nil {
		e.Bool(true)
		sp.saveState(e)
	} else {
		e.Bool(false)
	}
}

// LoadState restores the counterpart of SaveState.
func (t *Telemetry) LoadState(d *snapshot.Decoder) error {
	if err := t.LoadOrder(d); err != nil {
		return err
	}
	t.first = d.Bool()
	d.Str() // the workload-phase slot, unused
	if d.Err() != nil {
		return d.Err()
	}
	if err := t.reg.LoadState(d); err != nil {
		return err
	}
	hasSpans := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if hasSpans != (t.opts.Spans != nil) {
		return d.Failf("snapshot spans state %v, rebuilt telemetry %v", hasSpans, t.opts.Spans != nil)
	}
	if hasSpans {
		return t.opts.Spans.loadState(d)
	}
	return d.Err()
}

// saveState serializes the span recorder's open spans (sorted by message ID
// so the bytes are independent of map iteration order) and the finished
// record count. The histogram caches rebuild lazily against the restored
// registry; the JSONL stream is output, not state.
func (sp *Spans) saveState(e *snapshot.Encoder) {
	ids := make([]uint64, 0, len(sp.live))
	for id := range sp.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.Int(len(ids))
	for _, id := range ids {
		s := sp.live[id]
		e.U64(s.rec.Msg)
		e.Int(s.rec.App)
		e.Int(s.rec.Src)
		e.Int(s.rec.Dst)
		e.U64(s.rec.Queue)
		e.Int(len(s.rec.PerHop))
		for _, h := range s.rec.PerHop {
			e.U64(h.VCAlloc)
			e.U64(h.SWAlloc)
			e.U64(h.Xbar)
			e.U64(h.Output)
			e.U64(h.Wire)
		}
		e.U64(uint64(s.lastT))
		e.Int(s.hop)
	}
	e.U64(sp.records.Load())
}

func (sp *Spans) loadState(d *snapshot.Decoder) error {
	n := d.Count()
	if d.Err() != nil {
		return d.Err()
	}
	sp.live = make(map[uint64]*msgSpan, n)
	for i := 0; i < n; i++ {
		s := &msgSpan{}
		s.rec.Msg = d.U64()
		s.rec.App = d.Int()
		s.rec.Src = d.Int()
		s.rec.Dst = d.Int()
		s.rec.Queue = d.U64()
		hops := d.Count()
		if d.Err() != nil {
			return d.Err()
		}
		for h := 0; h < hops; h++ {
			s.rec.PerHop = append(s.rec.PerHop, SpanHop{
				VCAlloc: d.U64(),
				SWAlloc: d.U64(),
				Xbar:    d.U64(),
				Output:  d.U64(),
				Wire:    d.U64(),
			})
		}
		s.lastT = sim.Tick(d.U64())
		s.hop = d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		if _, dup := sp.live[s.rec.Msg]; dup {
			return d.Failf("duplicate open span for message %d", s.rec.Msg)
		}
		sp.live[s.rec.Msg] = s
	}
	sp.records.Store(d.U64())
	return d.Err()
}
