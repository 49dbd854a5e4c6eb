package router

import (
	"supersim/internal/config"
	"supersim/internal/crossbar"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/telemetry"
	"supersim/internal/types"
)

// routeState values for the head packet of an input VC.
const (
	rsIdle = iota
	rsPending
	rsDone
)

// inputVC is the per-(input port, VC) queue and the pipeline state of its
// head packet.
type inputVC struct {
	q          flitQueue
	routeState int
	resp       routing.Response
	outPort    int  // allocated output port, -1 until VC allocation
	outVC      int  // allocated output VC, -1 until VC allocation
	granted    bool // transient grant mark used within one allocateVCs pass
}

// inputStage is the input half shared by the IQ and IOQ architectures:
// per-VC input buffers, a routing engine per input port (route computation
// takes routing_latency core cycles), VC allocation, and a crossbar whose
// traversals ride a delay line. An architecture adds only its switch
// allocation: which contenders may send, and what a flit reserves at the
// output before traverse moves it.
type inputStage struct {
	*base
	routingLat uint64 // core cycles, >= 1
	xbar       *crossbar.Crossbar

	dl         delayLine
	in         []inputVC
	holder     []int // output VC (by client index) -> client holding it, -1 free
	vcPending  []int // clients awaiting output VC allocation
	vcOrder    []int // allocateVCs ordering scratch, capacity len(in)
	vcRotate   int
	vcAgeOrder bool // VC scheduler policy: age_based instead of round_robin
	sched      []*xbarSched
}

// newInputStage builds the input stage from the router settings. out is the
// output stage crossbar traversals land in, nil when they go straight to the
// channels.
func newInputStage(b *base, cfg *config.Settings, out *outputStage) inputStage {
	s := inputStage{base: b, routingLat: cfg.UIntOr("routing_latency", 1)}
	if s.routingLat < 1 {
		b.Panicf("routing_latency must be at least one cycle")
	}
	xbarLat := sim.Tick(cfg.UIntOr("crossbar_latency", 1))
	if xbarLat < 1 {
		b.Panicf("crossbar_latency must be at least one tick")
	}
	s.xbar = crossbar.New(b.radix, xbarLat, b.coreClock.Period(), 1)
	s.dl = delayLine{tag: evXbarArrive, out: out}
	s.in = make([]inputVC, b.radix*b.vcs)
	s.holder = make([]int, b.radix*b.vcs)
	s.vcOrder = make([]int, len(s.in))
	for i := range s.in {
		s.in[i].outPort, s.in[i].outVC = -1, -1
		s.holder[i] = -1
	}
	mk := schedFromConfig(cfg, b.rng)
	s.sched = make([]*xbarSched, b.radix)
	for port := range s.sched {
		s.sched[port] = mk()
	}
	s.vcAgeOrder = parseVCPolicy(cfg)
	return s
}

// ReceiveFlit accepts a flit from an input channel.
func (s *inputStage) ReceiveFlit(port int, f *types.Flit) {
	s.maybeStartRoute(s.admit(s.in, port, f))
	s.schedulePipeline()
}

// maybeStartRoute launches route computation when an input VC's queue head
// is an unrouted head flit.
func (s *inputStage) maybeStartRoute(client int) {
	iv := &s.in[client]
	f := iv.q.peek()
	if f == nil || !f.Head || iv.routeState != rsIdle {
		return
	}
	iv.routeState = rsPending
	done := s.coreClock.FutureEdge(s.Sim().Now().Tick+1, s.routingLat-1)
	s.Sim().Schedule(s.self, sim.Time{Tick: done}, evRouteDone, client)
}

func (s *inputStage) routeDone(client int) {
	iv := &s.in[client]
	if iv.routeState != rsPending {
		s.Panicf("route completion in state %d", iv.routeState)
	}
	f := iv.q.peek()
	if f == nil || !f.Head {
		s.Panicf("route completion without head flit at queue head")
	}
	port := s.clientPort(client)
	resp := s.algs[port].Route(s.Sim().Now().Tick, f.Pkt, port, s.clientVC(client))
	s.validateResponse(resp, f.Pkt)
	iv.resp = resp
	iv.routeState = rsDone
	s.vcPending = append(s.vcPending, client)
	s.schedulePipeline()
}

// allocateVCs performs stage 1 of the pipeline, one cycle of output VC
// allocation (the VC scheduler). Pending clients (input VCs whose head
// packet has a routing response) try to take a free output VC from their
// response's registered set. Contention is resolved either by a rotating
// start offset (round robin) or by packet age (oldest first). It reports
// whether any grant was made.
//
// vcOrder is ordering storage sized to the input VC count once; grant marks
// ride in the inputVC structs. The allocator itself never allocates — it
// runs every core cycle on every router. A grant whose head flit is tracked
// by the span recorder closes that flit's vc_alloc segment.
func (s *inputStage) allocateVCs(now sim.Tick) bool {
	pending, rotate := s.vcPending, s.vcRotate
	s.vcRotate++
	n := len(pending)
	if n == 0 {
		return false
	}
	order := s.vcOrder[:n]
	if s.vcAgeOrder {
		copy(order, pending)
		// Insertion sort by age: pending lists are short.
		for i := 1; i < n; i++ {
			c := order[i]
			a := s.in[c].q.peek().Pkt.Age()
			j := i - 1
			for j >= 0 && s.in[order[j]].q.peek().Pkt.Age() > a {
				order[j+1] = order[j]
				j--
			}
			order[j+1] = c
		}
	} else {
		start := rotate % n
		for i := range order {
			order[i] = pending[(start+i)%n]
		}
	}
	progress := false
	for _, client := range order {
		iv := &s.in[client]
		for _, vc := range iv.resp.VCs {
			if out := s.client(iv.resp.Port, vc); s.holder[out] == -1 {
				s.holder[out] = client
				iv.outPort, iv.outVC = iv.resp.Port, vc
				s.sched[iv.resp.Port].addContender(client)
				iv.granted = true
				progress = true
				if s.sp != nil {
					if f := iv.q.peek(); s.sp.Tracked(f) {
						// Arrival to VC grant: route computation plus the
						// wait for a free output VC.
						s.sp.Step(s.Sim(), now, f, telemetry.SpanVCAlloc)
					}
				}
				break
			}
		}
	}
	kept := pending[:0]
	for _, client := range pending {
		iv := &s.in[client]
		if iv.granted {
			iv.granted = false
		} else {
			kept = append(kept, client)
		}
	}
	s.vcPending = kept
	s.noteAlloc(n, len(kept))
	return progress
}

// need reports how many flits of room the client must find at the output
// to send through port now — its whole packet at a packet-buffer head, else
// one — and its output VC. need is 0 when the client has no flit allocated
// to port.
func (s *inputStage) need(port, client int) (need, vc int) {
	iv := &s.in[client]
	f := iv.q.peek()
	if f == nil || iv.outVC < 0 || iv.outPort != port {
		return 0, -1
	}
	if s.sched[port].mode == PacketBuffer && f.Head {
		return f.Pkt.Size(), iv.outVC
	}
	return 1, iv.outVC
}

// headAge is the crossbar scheduler's age metadata for a contender.
func (s *inputStage) headAge(client int) sim.Tick { return s.in[client].q.peek().Pkt.Age() }

// traverse moves the switch-allocation winner's head flit into the crossbar
// toward port, after the architecture has reserved its room at the output,
// and returns the tick it leaves the crossbar. A tail flit releases the
// output VC and starts routing the input VC's next packet.
func (s *inputStage) traverse(now sim.Tick, port, client int) sim.Tick {
	iv := &s.in[client]
	f := iv.q.pop()
	if s.sp.Tracked(f) {
		// VC grant to switch grant: crossbar arbitration plus the wait for
		// room at the output.
		s.sp.Step(s.Sim(), now, f, telemetry.SpanSWAlloc)
	}
	f.VC = iv.outVC
	if f.Head {
		f.Pkt.HopCount++
	}
	s.sendCreditUpstream(s.clientPort(client), s.clientVC(client))
	arrive := s.xbar.Start(now, port)
	s.pushFlight(&s.dl, arrive, f, port)
	s.sched[port].onSent(client, f.Head, f.Tail)
	s.noteRouted()
	if f.Tail {
		s.holder[s.client(port, iv.outVC)] = -1
		iv.outPort, iv.outVC = -1, -1
		iv.routeState = rsIdle
		iv.resp = routing.Response{}
		s.maybeStartRoute(client)
	}
	return arrive
}

// HOL reports the head-of-line state of one input VC for the stall
// diagnostician.
func (s *inputStage) HOL(port, vc int) HOLState {
	return s.hol(&s.in[s.client(port, vc)], s.holder)
}

// verifyIdle is the input half of the post-drain quiescence check.
func (s *inputStage) verifyIdle() {
	for client := range s.in {
		iv := &s.in[client]
		if iv.q.len() != 0 {
			s.Panicf("idle check: input VC %d holds %d flits", client, iv.q.len())
		}
		if iv.outVC != -1 || iv.routeState != rsIdle {
			s.Panicf("idle check: input VC %d holds an allocation", client)
		}
		if s.holder[client] != -1 {
			s.Panicf("idle check: output VC %d.%d held by client %d",
				s.clientPort(client), s.clientVC(client), s.holder[client])
		}
	}
	if len(s.vcPending) != 0 {
		s.Panicf("idle check: %d VC allocation requests pending", len(s.vcPending))
	}
	if _, ok := s.dl.next(); ok {
		s.Panicf("idle check: crossbar traversals in flight")
	}
}
