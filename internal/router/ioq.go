package router

import (
	"supersim/internal/config"
	"supersim/internal/sim"
)

func init() {
	Registry.Register("input_output_queued", func(s *sim.Simulator, name string, cfg *config.Settings, p Params) Router {
		return NewIOQ(s, name, cfg, p)
	})
}

// IOQ is the combined input/output-queued router architecture: the
// input-queued pipeline extended with per-(port, VC) output queues. It has
// full crossbar input and output speedup — the crossbar core typically runs
// at a frequency multiple of the links ("speedup" setting). Flits wait in
// the input queues only until credits are available for the output queues;
// after arriving in the output queues they wait for downstream (next hop)
// credits.
//
// The architecture supports reporting congestion on a per-VC or per-port
// basis and can view output queue credits, downstream credits, or both —
// the credit accounting styles compared in case study B — through its
// congestion sensor configuration.
type IOQ struct {
	base
	inputStage
	outputStage
}

// NewIOQ builds an input-output-queued router from its settings block.
func NewIOQ(s *sim.Simulator, name string, cfg *config.Settings, p Params) *IOQ {
	r := &IOQ{}
	r.base = newBase(r, s, name, cfg, p)
	r.inputStage = newInputStage(&r.base, cfg, &r.outputStage)
	r.outputStage = newOutputStage(&r.base, int(cfg.UIntOr("output_queue_depth", 64)), false)
	return r
}

// ProcessEvent dispatches the router's events.
func (r *IOQ) ProcessEvent(ev *sim.Event) {
	switch ev.Type {
	case evPipeline:
		r.pipelineScheduled = false
		r.pipeline()
	case evRouteDone:
		r.routeDone(ev.Context.(int))
	case evXbarArrive:
		r.drainFlights(&r.dl)
	case evOutput:
		r.drain(ev.Context.(int))
	default:
		r.Panicf("unknown event type %d", ev.Type)
	}
}

func (r *IOQ) pipeline() {
	now := r.Sim().Now().Tick
	progress := r.allocateVCs(now)
	// Stage 2: switch allocation against output queue space. A winner
	// reserves its output-queue slot before entering the crossbar.
	for port := 0; port < r.radix; port++ {
		sc := r.sched[port]
		if !sc.active() {
			continue
		}
		winner := sc.grant(func(client int) bool { return r.eligible(port, client) }, r.headAge)
		if winner >= 0 {
			r.reserve(now, port, r.in[winner].outVC)
			r.traverse(now, port, winner)
			progress = true
		}
	}
	if progress {
		r.schedulePipeline()
	}
}

// eligible reports whether the client can move a flit into the output queue
// this cycle. The credit pool checked here is the output queue space, not
// the downstream credits — that is the defining property of the IOQ
// architecture.
func (r *IOQ) eligible(port, client int) bool {
	need, vc := r.need(port, client)
	return need > 0 && (r.outDepth == 0 || r.outDepth-r.outOcc[r.client(port, vc)] >= need)
}

// HOL reports the head-of-line state of one input VC for the stall
// diagnostician.
func (r *IOQ) HOL(port, vc int) HOLState {
	return r.withQueue(r.inputStage.HOL(port, vc))
}

// VerifyIdle implements the post-drain quiescence check.
func (r *IOQ) VerifyIdle() {
	r.inputStage.verifyIdle()
	r.outputStage.verifyIdle()
	r.verifyIdleCredits()
}
