package router

import (
	"supersim/internal/config"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/telemetry"
	"supersim/internal/types"
)

func init() {
	Registry.Register("output_queued", func(s *sim.Simulator, name string, cfg *config.Settings, p Params) Router {
		return NewOQ(s, name, cfg, p)
	})
}

// OQ is the idealistic output-queued router architecture: zero head-of-line
// blocking and no scheduling conflicts. All input ports can simultaneously
// put a packet in any output queue; flits wait in the output queues until
// downstream credits are available. Output queues may be infinite
// (output_queue_depth = 0) or finite. The model is deliberately devoid of VC
// allocation and crossbar scheduling, which also makes it the fastest
// architecture to simulate. Routing is synchronous: an input VC's routeState
// is rsIdle or rsDone, and outPort stays unused.
type OQ struct {
	base
	outputStage
	queueLat sim.Tick // input-queue to output-queue transfer latency

	dl       delayLine
	in       []inputVC
	transfer []sim.Tick // per client: tick of last transfer (rate limit)
}

// NewOQ builds an output-queued router from its settings block.
func NewOQ(s *sim.Simulator, name string, cfg *config.Settings, p Params) *OQ {
	r := &OQ{}
	r.base = newBase(r, s, name, cfg, p)
	r.outputStage = newOutputStage(&r.base, int(cfg.UIntOr("output_queue_depth", 0)), true)
	r.queueLat = sim.Tick(cfg.UIntOr("queue_latency", 1))
	if r.queueLat < 1 {
		r.Panicf("queue_latency must be at least one tick")
	}
	r.dl = delayLine{tag: evTransferArrive, out: &r.outputStage}
	r.in = make([]inputVC, r.radix*r.vcs)
	r.transfer = make([]sim.Tick, r.radix*r.vcs)
	for i := range r.in {
		r.in[i].outPort, r.in[i].outVC = -1, -1
		r.transfer[i] = ^sim.Tick(0)
	}
	return r
}

// ReceiveFlit accepts a flit from an input channel.
func (r *OQ) ReceiveFlit(port int, f *types.Flit) {
	r.admit(r.in, port, f)
	r.schedulePipeline()
}

// ProcessEvent dispatches the router's events.
func (r *OQ) ProcessEvent(ev *sim.Event) {
	switch ev.Type {
	case evPipeline:
		r.pipelineScheduled = false
		r.pipeline()
	case evTransferArrive:
		r.drainFlights(&r.dl)
	case evOutput:
		r.drain(ev.Context.(int))
	default:
		r.Panicf("unknown event type %d", ev.Type)
	}
}

// pipeline transfers flits from input queues to output queues, one flit per
// input VC per core cycle, with no conflicts between inputs.
func (r *OQ) pipeline() {
	now := r.Sim().Now().Tick
	progress := false
	for client := range r.in {
		iv := &r.in[client]
		f := iv.q.peek()
		if f == nil {
			continue
		}
		if r.transfer[client] == now {
			progress = true // already moved one this cycle; revisit next cycle
			continue
		}
		if f.Head && iv.routeState == rsIdle {
			inPort := r.clientPort(client)
			resp := r.algs[inPort].Route(now, f.Pkt, inPort, r.clientVC(client))
			r.validateResponse(resp, f.Pkt)
			iv.resp = resp
			iv.routeState = rsDone
		}
		if f.Head && iv.outVC < 0 {
			// Acquire an output VC for the whole packet: output queues are
			// enqueued packet-atomically (wormhole), so the queue must not
			// be streaming another input's packet. Among the registered,
			// unowned VCs take the least occupied.
			best, bestOcc := -1, 0
			for _, vc := range iv.resp.VCs {
				qi := r.client(iv.resp.Port, vc)
				if r.outOwner[qi] != -1 {
					continue
				}
				if occ := r.outOcc[qi]; best == -1 || occ < bestOcc {
					best, bestOcc = vc, occ
				}
			}
			if best == -1 {
				continue // all registered VCs busy with other packets
			}
			iv.outVC = best
			r.outOwner[r.client(iv.resp.Port, best)] = client
		}
		out := r.client(iv.resp.Port, iv.outVC)
		if r.outDepth > 0 && r.outOcc[out] >= r.outDepth {
			continue // output queue full; drain will wake us
		}
		// Transfer one flit.
		iv.q.pop()
		if r.sp.Tracked(f) {
			// Arrival to transfer start: routing (synchronous here), output
			// VC acquisition, and the wait for output-queue space — the OQ
			// analogue of VC allocation.
			r.sp.Step(r.Sim(), now, f, telemetry.SpanVCAlloc)
		}
		f.VC = iv.outVC
		if f.Head {
			f.Pkt.HopCount++
		}
		r.reserve(now, iv.resp.Port, iv.outVC)
		r.sendCreditUpstream(r.clientPort(client), r.clientVC(client))
		r.transfer[client] = now
		r.noteRouted()
		r.pushFlight(&r.dl, now+r.queueLat, f, iv.resp.Port)
		if f.Tail {
			r.outOwner[out] = -1
			iv.routeState = rsIdle
			iv.outVC = -1
			iv.resp = routing.Response{}
		}
		progress = true
	}
	if progress {
		r.schedulePipeline()
	}
}

// HOL reports the head-of-line state of one input VC for the stall
// diagnostician. The OQ architecture has no VC-allocation pipeline; a routed
// head without an output VC waits for an unowned output queue, and its
// "holder" is the input client currently streaming a packet into one of the
// wanted queues.
func (r *OQ) HOL(port, vc int) HOLState {
	return r.withQueue(r.hol(&r.in[r.client(port, vc)], r.outOwner))
}

// VerifyIdle implements the post-drain quiescence check.
func (r *OQ) VerifyIdle() {
	for client := range r.in {
		if r.in[client].q.len() != 0 {
			r.Panicf("idle check: input VC %d holds %d flits", client, r.in[client].q.len())
		}
	}
	r.outputStage.verifyIdle()
	if _, ok := r.dl.next(); ok {
		r.Panicf("idle check: transfers in flight")
	}
	r.verifyIdleCredits()
}
