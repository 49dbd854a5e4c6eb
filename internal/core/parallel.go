// Parallel assembly: partitioning a built simulation into shards driven by
// the conservative engine in internal/sim.
//
// The partition is topology-aware but workload-agnostic:
//
//   - Shard 0 (the "host" shard) keeps the workload, all applications, all
//     interfaces, the message pool, and every daemon observer (the verify
//     watchdog). These components are coupled synchronously — message
//     demux, the four-phase handshake, and pool recycling all run as plain
//     calls with zero latency — so they must share one event queue.
//   - Router shards 1..N-1 each own a contiguous slice of routers (or whole
//     topology groups when the network implements network.Grouped) plus all
//     channels delivering into them.
//
// Every edge between shards is a channel with latency >= 1 (enforced by the
// channel constructors), which is the lookahead the engine's conservative
// synchronization relies on. A flit channel's delivery events run on the
// shard of its sink router, so it is adopted there; its paired credit
// channel delivers in the opposite direction and is adopted by the source
// side. Cross-shard injections travel through the engine inbox.
package core

import (
	"supersim/internal/network"
	"supersim/internal/sim"
	"supersim/internal/telemetry"
	"supersim/internal/types"
)

// Shard describes one partition of a parallel simulation: its simulator,
// the routers it owns, and its local message/flit pool. Shard 0 is the host
// shard; its Pool is the workload's pool (all traffic originates and retires
// there today — router shards carry their own pools so in-network allocation
// stays shard-local if a future model needs it).
type Shard struct {
	ID      int
	Sim     *sim.Simulator
	Routers []int
	Pool    *types.Pool
}

// attachParallel partitions the built simulation into up to `workers` shards
// and wires the conservative engine. It is a no-op (returning a serial
// simulation) when the partition would be trivial: fewer than two shards, or
// no routers to move.
func attachParallel(sm *Simulation, workers int) {
	nr := sm.Net.NumRouters()
	ns := workers
	if ns > nr+1 {
		// More workers than partitions: at most one shard per router plus
		// the host shard.
		ns = nr + 1
	}
	if ns < 2 {
		return
	}
	eng := sim.NewEngine(sm.Sim)
	sims := make([]*sim.Simulator, ns)
	sims[0] = sm.Sim
	shards := make([]*Shard, ns)
	shards[0] = &Shard{ID: 0, Sim: sm.Sim, Pool: sm.Workload.Pool()}
	for k := 1; k < ns; k++ {
		sims[k] = eng.AddShard()
		shards[k] = &Shard{ID: k, Sim: sims[k], Pool: types.NewPool()}
	}

	// Router assignment: prefer group boundaries on hierarchical topologies
	// (dragonfly groups are internally all-to-all, so cutting inside a group
	// maximizes cross-shard edges); otherwise contiguous index ranges, which
	// for the mesh-like topologies keeps neighbors together.
	routerShards := ns - 1
	assign := make([]int, nr)
	if g, ok := sm.Net.(network.Grouped); ok && g.NumGroups() >= routerShards {
		ng := g.NumGroups()
		for i := 0; i < nr; i++ {
			assign[i] = 1 + g.RouterGroup(i)*routerShards/ng
		}
	} else {
		for i := 0; i < nr; i++ {
			assign[i] = 1 + i*routerShards/nr
		}
	}
	for i := 0; i < nr; i++ {
		k := assign[i]
		eng.Adopt(sm.Net.Router(i), sims[k])
		shards[k].Routers = append(shards[k].Routers, i)
	}

	shardOf := func(r int) int {
		if r == network.Terminal {
			return 0 // interfaces live on the host shard
		}
		return assign[r]
	}
	for _, l := range sm.Net.Links() {
		so, do := shardOf(l.FromRouter), shardOf(l.ToRouter)
		// The flit channel's delivery events run on the sink side.
		if do != 0 {
			eng.Adopt(l.Ch, sims[do])
		}
		if so != do {
			l.Ch.SetRemote(eng.Link(sims[so], sims[do], l.Ch.Latency(), l.Ch))
		}
		// The credit channel delivers back to the flit source side.
		if so != 0 {
			eng.Adopt(l.Cr, sims[so])
		}
		if so != do {
			l.Cr.SetRemote(eng.Link(sims[do], sims[so], l.Cr.Latency(), l.Cr))
		}
	}
	if sm.Telemetry != nil {
		// Shard-aware observability: switch the tracer/span recorder into
		// per-shard lane buffering (merged back into the serial order at seal
		// time), and instrument every shard's scheduler with an engine probe
		// exposed through the registry and the /shards endpoint.
		sm.Telemetry.Partition(ns)
		for k := 0; k < ns; k++ {
			p := telemetry.ForEngineShard(sm.Telemetry, k)
			eng.SetShardProbe(k, p)
			id := k
			sm.Telemetry.RegisterShard(k, shards[k].Routers,
				func() sim.ShardStatus { return eng.ShardStatus(id) }, p)
		}
	}

	sm.engine = eng
	sm.Shards = shards
}
