package verify

import (
	"supersim/internal/snapshot"
)

// Checkpoint state for the verification subsystem. Ledgers are registered at
// construction time in deterministic build order, so they are serialized by
// registration index; a name check on every ledger catches any mismatch
// between the snapshot and the rebuilt component graph. The per-flit
// in-flight marks travel with their messages (types checkpoint), so only the
// global counters and the mirrors live here.

// SaveState serializes the verifier's mutable state.
func (v *Verifier) SaveState(e *snapshot.Encoder) {
	if v == nil {
		return
	}
	v.SaveOrder(e)
	e.U64(v.injected)
	e.U64(v.retired)
	e.U64(v.activity.Load())
	e.U64(v.lastActivity)
	e.Bool(v.watchdogOn)
	e.Int(len(v.credits))
	for _, cl := range v.credits {
		e.Str(cl.name)
		e.Int(len(cl.mirror))
		for _, c := range cl.mirror {
			e.Int(c)
		}
	}
	e.Int(len(v.buffers))
	for _, bl := range v.buffers {
		e.Str(bl.name)
		e.Int(len(bl.occ))
		for _, o := range bl.occ {
			e.Int(o)
		}
	}
}

// LoadState restores the counterpart of SaveState onto a freshly attached
// verifier whose ledgers were registered by an identical build.
func (v *Verifier) LoadState(d *snapshot.Decoder) error {
	if v == nil {
		return nil
	}
	if err := v.LoadOrder(d); err != nil {
		return err
	}
	v.injected = d.U64()
	v.retired = d.U64()
	v.activity.Store(d.U64())
	v.lastActivity = d.U64()
	won := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if won != v.watchdogOn {
		return d.Failf("snapshot watchdog state %v, rebuilt verifier %v", won, v.watchdogOn)
	}
	nc := d.Count()
	if d.Err() != nil {
		return d.Err()
	}
	if nc != len(v.credits) {
		return d.Failf("snapshot has %d credit ledgers, rebuilt verifier has %d", nc, len(v.credits))
	}
	for _, cl := range v.credits {
		name := d.Str()
		if d.Err() != nil {
			return d.Err()
		}
		if name != cl.name {
			return d.Failf("credit ledger mismatch: snapshot %q, rebuilt %q", name, cl.name)
		}
		vcs := d.Count()
		if d.Err() != nil {
			return d.Err()
		}
		if vcs != len(cl.mirror) {
			return d.Failf("credit ledger %s has %d VCs, snapshot says %d", cl.name, len(cl.mirror), vcs)
		}
		for vc := 0; vc < vcs; vc++ {
			cl.mirror[vc] = d.Int()
		}
	}
	nb := d.Count()
	if d.Err() != nil {
		return d.Err()
	}
	if nb != len(v.buffers) {
		return d.Failf("snapshot has %d buffer ledgers, rebuilt verifier has %d", nb, len(v.buffers))
	}
	for _, bl := range v.buffers {
		name := d.Str()
		if d.Err() != nil {
			return d.Err()
		}
		if name != bl.name {
			return d.Failf("buffer ledger mismatch: snapshot %q, rebuilt %q", name, bl.name)
		}
		vcs := d.Count()
		if d.Err() != nil {
			return d.Err()
		}
		if vcs != len(bl.occ) {
			return d.Failf("buffer ledger %s has %d VCs, snapshot says %d", bl.name, len(bl.occ), vcs)
		}
		for vc := 0; vc < vcs; vc++ {
			bl.occ[vc] = d.Int()
		}
	}
	return d.Err()
}
