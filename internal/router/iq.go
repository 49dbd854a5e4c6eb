package router

import (
	"supersim/internal/config"
	"supersim/internal/sim"
	"supersim/internal/types"
)

func init() {
	Registry.Register("input_queued", func(s *sim.Simulator, name string, cfg *config.Settings, p Params) Router {
		return NewIQ(s, name, cfg, p)
	})
}

// IQ is the input-queued router architecture modeled after the standard
// input-queued architecture in Dally & Towles: per-VC input buffers, a
// routing engine per input port, VC allocation, and crossbar scheduling with
// full input speedup (inputs never conflict; only outputs arbitrate). Flits
// wait in the input queues until downstream (next hop) credits are
// available. The crossbar scheduler's flow control technique (flit-buffer,
// packet-buffer, winner-take-all) is a configuration setting.
type IQ struct {
	base
	inputStage
	nextChanStart []sim.Tick // per output port: earliest channel inject tick
}

// NewIQ builds an input-queued router from its settings block.
func NewIQ(s *sim.Simulator, name string, cfg *config.Settings, p Params) *IQ {
	r := &IQ{}
	r.base = newBase(r, s, name, cfg, p)
	r.inputStage = newInputStage(&r.base, cfg, nil)
	r.nextChanStart = make([]sim.Tick, r.radix)
	return r
}

// ReceiveCredit accepts a downstream credit for an output port.
func (r *IQ) ReceiveCredit(port int, c types.Credit) {
	r.checkPort(port)
	r.returnDownstreamCredit(port, c.VC)
	r.schedulePipeline()
}

// ProcessEvent dispatches the router's events.
func (r *IQ) ProcessEvent(ev *sim.Event) {
	switch ev.Type {
	case evPipeline:
		r.pipelineScheduled = false
		r.pipeline()
	case evRouteDone:
		r.routeDone(ev.Context.(int))
	case evXbarArrive:
		r.drainFlights(&r.dl)
	default:
		r.Panicf("unknown event type %d", ev.Type)
	}
}

func (r *IQ) pipeline() {
	now := r.Sim().Now().Tick
	progress := r.allocateVCs(now)
	// Stage 2: switch allocation, one winner per output port. A winner
	// takes its downstream credit before entering the crossbar.
	channelBlocked := false
	for port := 0; port < r.radix; port++ {
		sc := r.sched[port]
		if !sc.active() {
			continue
		}
		winner := sc.grant(
			func(client int) bool {
				ok, chBlock := r.eligible(now, port, client)
				channelBlocked = channelBlocked || chBlock
				return ok
			},
			r.headAge,
		)
		if winner >= 0 {
			r.takeDownstreamCredit(port, r.in[winner].outVC)
			r.nextChanStart[port] = r.traverse(now, port, winner) + r.chanPeriod
			progress = true
		}
	}
	if progress || channelBlocked {
		r.schedulePipeline()
	}
}

// eligible reports whether the client can send a flit through output port
// this cycle; the second result flags "blocked only by channel timing",
// which requires a retry next cycle without any external event.
func (r *IQ) eligible(now sim.Tick, port, client int) (bool, bool) {
	need, vc := r.need(port, client)
	if need == 0 {
		return false, false
	}
	if r.downCred[port][vc] < need {
		r.noteCreditStall()
		return false, false
	}
	if r.nextChanStart[port] > now+r.xbar.Latency() {
		return false, true
	}
	return true, false
}

// VerifyIdle implements the post-drain quiescence check.
func (r *IQ) VerifyIdle() {
	r.inputStage.verifyIdle()
	r.verifyIdleCredits()
}
