// Package parkinglot implements the linear-chain stress topology that
// creates the parking lot problem: terminals along a chain all sending
// toward one end merge at every router, so round-robin arbitration gives
// exponentially less bandwidth to farther terminals. Age-based arbitration
// is known to fix this unfairness, and the topology exists to demonstrate
// exactly that (configure router.crossbar_policy accordingly).
package parkinglot

import (
	"math/rand/v2"

	"supersim/internal/config"
	"supersim/internal/congestion"
	"supersim/internal/network"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/types"
)

func init() {
	network.Registry.Register("parking_lot", func(s *sim.Simulator, cfg *config.Settings) network.Network {
		return New(s, cfg)
	})
}

// ParkingLot is a linear array of routers, one terminal each. Ports:
// 0 terminal, 1 toward lower indices, 2 toward higher indices.
type ParkingLot struct {
	network.Base
	n   int
	vcs int
	all []int // every VC, shared read-only by routing and injection
}

// New builds a parking lot chain from the network settings block.
func New(s *sim.Simulator, cfg *config.Settings) *ParkingLot {
	p := &ParkingLot{Base: network.NewBase(s, cfg)}
	p.n = int(cfg.UInt("routers"))
	if p.n < 2 {
		panic("parkinglot: at least 2 routers required")
	}
	p.vcs = int(cfg.UIntOr("router.num_vcs", 1))

	p.all = make([]int, p.vcs)
	for i := range p.all {
		p.all[i] = i
	}
	for id := 0; id < p.n; id++ {
		p.BuildRouter(id, 3, p.routingAlg)
	}
	for id := 0; id+1 < p.n; id++ {
		p.LinkBidir(p.Routers[id], 2, p.Routers[id+1], 1)
	}
	for t := 0; t < p.n; t++ {
		ifc := p.BuildInterface(t, p.vcs, p.injectionVCs)
		p.AttachTerminal(ifc, p.Routers[t], 0)
	}
	return p
}

// routingAlg implements routing.Ctor: packets move along the chain toward
// their destination and eject there.
func (p *ParkingLot) routingAlg(routerID, inputPort int, sensor congestion.Sensor, rng *rand.Rand) routing.Algorithm {
	return routing.AlgorithmFunc(func(now sim.Tick, pkt *types.Packet, inPort, inVC int) routing.Response {
		dst := pkt.Msg.Dst
		switch {
		case dst < routerID:
			return routing.Response{Port: 1, VCs: p.all}
		case dst > routerID:
			return routing.Response{Port: 2, VCs: p.all}
		default:
			return routing.Response{Port: 0, VCs: p.all}
		}
	})
}

// injectionVCs implements netiface.InjectionPolicy: packets may start on
// any VC.
func (p *ParkingLot) injectionVCs(*types.Packet) []int { return p.all }
