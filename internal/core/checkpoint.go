// Checkpoint/restore for assembled simulations.
//
// A snapshot is a complete, versioned serialization of simulator state at a
// tick boundary T: the settings document, every PRNG stream, all live
// messages, every component's mutable state, the verify and telemetry
// registries, and the merged event queue in partition-independent order.
// Restore rebuilds the identical component graph by re-running Build on the
// embedded settings — construction is deterministic, so every component
// reoccupies its construction-order slot — then overwrites the fresh state
// with the snapshot's and re-injects the saved events with their exact
// ordering keys. Because event records are keyed by (tick, epsilon, owner,
// oseq) and component state is serialized per component rather than per
// shard, a snapshot taken at one worker count restores into any other with
// identical results.
package core

import (
	"fmt"

	"supersim/internal/config"
	"supersim/internal/router"
	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/types"
)

// Snapshot section tags, in stream order.
const (
	secConfig    = "CFG"
	secTime      = "TIM"
	secSim       = "SIM"
	secMessages  = "MSG"
	secWorkload  = "WKL"
	secNetwork   = "NET"
	secVerify    = "VER"
	secTelemetry = "TEL"
	secEvents    = "EVQ"
)

// keyed is the view of a component the checkpoint machinery needs: it
// processes events, carries a construction-order key, and knows its owning
// (possibly shard) simulator. Every type embedding sim.ComponentBase
// satisfies it.
type keyed interface {
	sim.Handler
	OrderKey() uint32
	Sim() *sim.Simulator
}

// handlers walks every component that can own queued events, in a fixed
// deterministic order. fn receives each component exactly once.
func (sm *Simulation) handlers(fn func(keyed) error) error {
	add := func(what string, c any) error {
		k, ok := c.(keyed)
		if !ok {
			return fmt.Errorf("core: %s (%T) does not embed sim.ComponentBase and cannot be checkpointed", what, c)
		}
		return fn(k)
	}
	if err := add("workload", sm.Workload); err != nil {
		return err
	}
	for i := 0; i < sm.Workload.NumApps(); i++ {
		if err := add(fmt.Sprintf("application %d", i), sm.Workload.App(i)); err != nil {
			return err
		}
	}
	for i := 0; i < sm.Net.NumRouters(); i++ {
		if err := add(fmt.Sprintf("router %d", i), sm.Net.Router(i)); err != nil {
			return err
		}
	}
	for i := 0; i < sm.Net.NumTerminals(); i++ {
		if err := add(fmt.Sprintf("interface %d", i), sm.Net.Interface(i)); err != nil {
			return err
		}
	}
	for i, l := range sm.Net.Links() {
		if err := add(fmt.Sprintf("link %d flit channel", i), l.Ch); err != nil {
			return err
		}
		if err := add(fmt.Sprintf("link %d credit channel", i), l.Cr); err != nil {
			return err
		}
	}
	if sm.Verify != nil {
		if err := add("verifier", sm.Verify); err != nil {
			return err
		}
	}
	return nil
}

// sims returns every simulator of the partition (just the host when serial).
func (sm *Simulation) sims() []*sim.Simulator {
	if len(sm.Shards) == 0 {
		return []*sim.Simulator{sm.Sim}
	}
	out := make([]*sim.Simulator, len(sm.Shards))
	for i, sh := range sm.Shards {
		out[i] = sh.Sim
	}
	return out
}

// routerState returns router i's checkpoint interface.
func (sm *Simulation) routerState(i int) (router.Stater, error) {
	st, ok := sm.Net.Router(i).(router.Stater)
	if !ok {
		return nil, fmt.Errorf("core: router %d (%T) does not support checkpointing", i, sm.Net.Router(i))
	}
	return st, nil
}

// Snapshot serializes the complete simulation state at the tick boundary T.
// The simulation must be paused at T: serially, after RunUntil(T); sharded,
// after Engine.RunUntil(T) followed by DrainCross, so every cross-shard post
// has become a locally queued event.
func (sm *Simulation) Snapshot(tick sim.Tick) ([]byte, error) {
	e := snapshot.NewEncoder()
	e.WriteHeader()

	e.Section(secConfig)
	//sslint:allow snapshotcomplete — the config blob is restored indirectly: Restore re-parses it and rebuilds via Build(cfg), which sets cfg
	e.Blob([]byte(sm.cfg.JSON()))

	// Partition-independent progress totals: the per-shard split of executed
	// events depends on the worker count, so only the run-wide sums are state.
	executed, last := sm.totals()
	e.Section(secTime)
	e.U64(uint64(tick))
	e.U64(executed)
	e.U64(uint64(last.Tick))
	e.U32(uint32(last.Eps))

	// Host simulator core state: scheduling counters and every PRNG stream.
	// Components are constructed against the host, so the host owns all order
	// keys and derived streams regardless of the partition.
	e.Section(secSim)
	sm.Sim.SaveState(e)

	// Live messages, collected from every flit- or packet-holding component.
	table := types.NewMessageTable()
	for i := 0; i < sm.Net.NumTerminals(); i++ {
		sm.Net.Interface(i).Collect(table)
	}
	for i := 0; i < sm.Net.NumRouters(); i++ {
		st, err := sm.routerState(i)
		if err != nil {
			return nil, err
		}
		st.Collect(table)
	}
	for _, l := range sm.Net.Links() {
		l.Ch.Collect(table)
	}
	e.Section(secMessages)
	table.SaveState(e)

	e.Section(secWorkload)
	sm.Workload.SaveState(e)

	e.Section(secNetwork)
	for i := 0; i < sm.Net.NumRouters(); i++ {
		st, err := sm.routerState(i)
		if err != nil {
			return nil, err
		}
		st.SaveState(e, table)
	}
	for i := 0; i < sm.Net.NumTerminals(); i++ {
		sm.Net.Interface(i).SaveState(e, table)
	}
	for _, l := range sm.Net.Links() {
		l.Ch.SaveState(e, table)
		l.Cr.SaveState(e)
	}

	e.Section(secVerify)
	e.Bool(sm.Verify != nil)
	sm.Verify.SaveState(e)

	e.Section(secTelemetry)
	e.Bool(sm.Telemetry != nil)
	if sm.Telemetry != nil {
		sm.Telemetry.SaveState(e)
	}

	// The merged event queue: records from every shard, sorted by the heap's
	// total order so the bytes are partition-independent.
	var recs []sim.EventRecord
	for _, s := range sm.sims() {
		r, err := s.ExportEvents()
		if err != nil {
			return nil, err
		}
		recs = append(recs, r...)
	}
	sim.SortEventRecords(recs)
	e.Section(secEvents)
	e.Int(len(recs))
	for i := range recs {
		recs[i].Save(e)
	}

	return e.Bytes(), nil
}

// Restore rebuilds a simulation from snapshot bytes and returns it with the
// checkpoint tick. workers overrides the snapshot's simulation.workers when
// positive; zero keeps the snapshot's configured value. Any panic on the
// decode path (including a Build failure on a corrupted embedded config) is
// recovered into an error — a snapshot is external input and must never
// crash the process.
func Restore(data []byte, workers int) (sm *Simulation, tick sim.Tick, err error) {
	defer func() {
		if r := recover(); r != nil {
			sm, tick, err = nil, 0, fmt.Errorf("core: restore failed: %v", r)
		}
	}()
	d := snapshot.NewDecoder(data)
	if err := d.ReadHeader(); err != nil {
		return nil, 0, err
	}

	if err := d.Section(secConfig); err != nil {
		return nil, 0, err
	}
	cfgJSON := d.Blob()
	if d.Err() != nil {
		return nil, 0, d.Err()
	}
	cfg, err := config.Parse(cfgJSON)
	if err != nil {
		return nil, 0, fmt.Errorf("core: snapshot config: %w", err)
	}
	if workers > 0 {
		cfg.Set("simulation.workers", workers)
	}

	if err := d.Section(secTime); err != nil {
		return nil, 0, err
	}
	tick = sim.Tick(d.U64())
	executed := d.U64()
	last := sim.Time{Tick: sim.Tick(d.U64()), Eps: sim.Epsilon(d.U32())}
	if d.Err() != nil {
		return nil, 0, d.Err()
	}

	sm = Build(cfg)

	if err := d.Section(secSim); err != nil {
		return nil, 0, err
	}
	if err := sm.Sim.LoadState(d); err != nil {
		return nil, 0, err
	}

	if err := d.Section(secMessages); err != nil {
		return nil, 0, err
	}
	table, err := types.LoadMessageTable(d, sm.Workload.Pool())
	if err != nil {
		return nil, 0, err
	}

	if err := d.Section(secWorkload); err != nil {
		return nil, 0, err
	}
	if err := sm.Workload.LoadState(d); err != nil {
		return nil, 0, err
	}

	if err := d.Section(secNetwork); err != nil {
		return nil, 0, err
	}
	for i := 0; i < sm.Net.NumRouters(); i++ {
		st, err := sm.routerState(i)
		if err != nil {
			return nil, 0, err
		}
		if err := st.LoadState(d, table); err != nil {
			return nil, 0, err
		}
	}
	for i := 0; i < sm.Net.NumTerminals(); i++ {
		if err := sm.Net.Interface(i).LoadState(d, table); err != nil {
			return nil, 0, err
		}
	}
	for _, l := range sm.Net.Links() {
		if err := l.Ch.LoadState(d, table); err != nil {
			return nil, 0, err
		}
		if err := l.Cr.LoadState(d); err != nil {
			return nil, 0, err
		}
	}

	if err := d.Section(secVerify); err != nil {
		return nil, 0, err
	}
	hasVer := d.Bool()
	if d.Err() != nil {
		return nil, 0, d.Err()
	}
	if hasVer != (sm.Verify != nil) {
		return nil, 0, d.Failf("snapshot verifier state %v, rebuilt simulation %v", hasVer, sm.Verify != nil)
	}
	if err := sm.Verify.LoadState(d); err != nil {
		return nil, 0, err
	}

	if err := d.Section(secTelemetry); err != nil {
		return nil, 0, err
	}
	hasTel := d.Bool()
	if d.Err() != nil {
		return nil, 0, d.Err()
	}
	if hasTel != (sm.Telemetry != nil) {
		return nil, 0, d.Failf("snapshot telemetry state %v, rebuilt simulation %v", hasTel, sm.Telemetry != nil)
	}
	if sm.Telemetry != nil {
		if err := sm.Telemetry.LoadState(d); err != nil {
			return nil, 0, err
		}
	}

	// Event queue: map each record's owner key back to the rebuilt component
	// and inject it — on the component's owning simulator, so a record lands
	// on whichever shard the new partition placed its handler.
	keyMap := map[uint32]keyed{}
	if err := sm.handlers(func(k keyed) error {
		if prev, dup := keyMap[k.OrderKey()]; dup {
			return fmt.Errorf("core: components share construction-order key %d (%T, %T)", k.OrderKey(), prev, k)
		}
		keyMap[k.OrderKey()] = k
		return nil
	}); err != nil {
		return nil, 0, err
	}
	if err := d.Section(secEvents); err != nil {
		return nil, 0, err
	}
	n := d.Count()
	if d.Err() != nil {
		return nil, 0, d.Err()
	}
	// The fresh build scheduled its own initial events (application init,
	// observer daemons); the snapshot's queue holds their in-flight
	// successors, so the initial set is dropped wholesale before injection.
	for _, s := range sm.sims() {
		s.ResetQueue()
	}
	for i := 0; i < n; i++ {
		var r sim.EventRecord
		if err := r.Load(d); err != nil {
			return nil, 0, err
		}
		if r.Tick < tick {
			return nil, 0, d.Failf("event %d at tick %d predates the checkpoint tick %d", i, r.Tick, tick)
		}
		h, ok := keyMap[r.Owner]
		if !ok {
			return nil, 0, d.Failf("event %d owned by unknown component key %d", i, r.Owner)
		}
		h.Sim().InjectEvent(h, r)
	}
	if err := d.Done(); err != nil {
		return nil, 0, err
	}

	for _, s := range sm.sims() {
		s.SetNow(sim.Time{Tick: tick})
	}
	// Run-wide progress totals live on the host; shard counters stay zero.
	sm.Sim.SetProgress(executed, last)
	if sm.engine != nil {
		// Every queued event is at tick or later, so every shard has
		// vacuously committed the checkpoint tick; without this the first
		// phase would crawl from tick 0 in empty lookahead windows.
		sm.engine.SeedCommit(tick)
	}
	return sm, tick, nil
}
