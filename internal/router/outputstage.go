package router

import (
	"supersim/internal/sim"
	"supersim/internal/telemetry"
	"supersim/internal/types"
)

// outputStage is the output half shared by the IOQ and OQ architectures:
// per-(port, VC) output queues in which flits wait for downstream credits,
// drained onto each channel one flit per channel cycle, round robin across
// VCs. Room is reserved when a flit leaves its input queue, so outOcc counts
// flits still in flight toward the queue.
type outputStage struct {
	*base
	outDepth  int // per (port, vc); 0 = infinite
	chanClock *sim.Clock

	outQ     []flitQueue // [port*vcs+vc]
	outOcc   []int       // reserved occupancy incl. in-flight traversals
	outOwner []int       // OQ only: [port*vcs+vc] input client streaming a packet in, -1 free
	outBusy  []bool      // per port: drain event scheduled
	outRR    []int       // per port: round robin VC pointer
}

// newOutputStage builds output queues of depth outDepth (0 = infinite).
// owned adds the per-queue packet owners the OQ architecture's wormhole
// enqueueing needs.
func newOutputStage(b *base, outDepth int, owned bool) outputStage {
	o := outputStage{
		base:      b,
		outDepth:  outDepth,
		chanClock: sim.NewClock(b.chanPeriod, 0),
		outQ:      make([]flitQueue, b.radix*b.vcs),
		outOcc:    make([]int, b.radix*b.vcs),
		outBusy:   make([]bool, b.radix),
		outRR:     make([]int, b.radix),
	}
	if owned {
		o.outOwner = make([]int, b.radix*b.vcs)
		for i := range o.outOwner {
			o.outOwner[i] = -1
		}
	}
	return o
}

// ReceiveCredit accepts a downstream credit for an output port.
func (o *outputStage) ReceiveCredit(port int, c types.Credit) {
	o.checkPort(port)
	o.returnDownstreamCredit(port, c.VC)
	o.scheduleOutput(port)
}

// reserve claims room for one flit in output queue (port, vc).
func (o *outputStage) reserve(now sim.Tick, port, vc int) {
	o.outOcc[o.client(port, vc)]++
	o.sensor.AddOutput(now, port, vc, 1)
}

// scheduleOutput arms the port's drain for its next channel cycle.
func (o *outputStage) scheduleOutput(port int) {
	if !o.outBusy[port] {
		o.outBusy[port] = true
		o.Sim().Schedule(o.self, o.edgeAfter(o.chanClock, 2), evOutput, port)
	}
}

// drain sends one flit from the port's output queues to the channel, round
// robin across VCs that have both a flit and a downstream credit.
func (o *outputStage) drain(port int) {
	o.outBusy[port] = false
	now := o.Sim().Now().Tick
	for i := 0; i < o.vcs; i++ {
		vc := (o.outRR[port] + i) % o.vcs
		qi := o.client(port, vc)
		if o.outQ[qi].len() == 0 {
			continue
		}
		if o.downCred[port][vc] < 1 {
			o.noteCreditStall()
			continue
		}
		f := o.outQ[qi].pop()
		if o.sp != nil && o.sp.Tracked(f) {
			// Output-queue residency: the wait for downstream credits.
			o.sp.Step(o.Sim(), now, f, telemetry.SpanOutput)
		}
		o.takeDownstreamCredit(port, vc)
		o.outOcc[qi]--
		if o.outOcc[qi] < 0 {
			o.Panicf("output queue occupancy went negative on port %d vc %d", port, vc)
		}
		o.sensor.AddOutput(now, port, vc, -1)
		o.outCh[port].Inject(f)
		o.outRR[port] = (vc + 1) % o.vcs
		// A slot freed: blocked inputs may proceed, and more flits may be
		// waiting to drain.
		o.schedulePipeline()
		for v := 0; v < o.vcs; v++ {
			if o.outQ[o.client(port, v)].len() > 0 {
				o.scheduleOutput(port)
				break
			}
		}
		return
	}
}

// withQueue overlays an allocated head's output-queue occupancy on its HOL
// state.
func (o *outputStage) withQueue(st HOLState) HOLState {
	if st.Phase == HOLAllocated {
		st.OutQueued = o.outOcc[o.client(st.OutPort, st.OutVC)]
		st.OutDepth = o.outDepth
	}
	return st
}

// verifyIdle is the output half of the post-drain quiescence check.
func (o *outputStage) verifyIdle() {
	for i := range o.outQ {
		if o.outQ[i].len() != 0 || o.outOcc[i] != 0 {
			o.Panicf("idle check: output queue %d holds %d flits (occ %d)",
				i, o.outQ[i].len(), o.outOcc[i])
		}
		if o.outOwner != nil && o.outOwner[i] != -1 {
			o.Panicf("idle check: output queue %d owned by client %d", i, o.outOwner[i])
		}
	}
}
