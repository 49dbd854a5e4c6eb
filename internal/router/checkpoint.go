package router

import (
	"math"

	"supersim/internal/congestion"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/types"
)

// Checkpoint state for the router architectures. Flits buffered inside a
// router are stored as references into the checkpoint's message table;
// routing responses are stored by value (port + VC set) — the VC sets
// algorithms hand out are immutable, so restoring the values is equivalent
// to restoring the aliases. Ring buffers and delay lines are normalized on
// save so the bytes do not depend on compaction or wrap history.

// Stater is implemented by every router architecture: Collect feeds the
// message table, SaveState/LoadState serialize against it. The restore side
// runs on a freshly built router of the identical configuration.
type Stater interface {
	Collect(t *types.MessageTable)
	SaveState(e *snapshot.Encoder, t *types.MessageTable)
	LoadState(d *snapshot.Decoder, t *types.MessageTable) error
}

func (q *flitQueue) collect(t *types.MessageTable) {
	for i := 0; i < q.n; i++ {
		t.Add(q.buf[(q.head+i)%len(q.buf)].Pkt.Msg)
	}
}

func (q *flitQueue) saveState(e *snapshot.Encoder, t *types.MessageTable) {
	e.Int(q.n)
	for i := 0; i < q.n; i++ {
		t.EncodeFlit(e, q.buf[(q.head+i)%len(q.buf)])
	}
}

func (q *flitQueue) loadState(d *snapshot.Decoder, t *types.MessageTable) error {
	n := d.Count()
	if d.Err() != nil {
		return d.Err()
	}
	q.buf = q.buf[:0]
	q.head = 0
	q.n = 0
	for i := 0; i < n; i++ {
		f, err := t.DecodeFlit(d)
		if err != nil {
			return err
		}
		if f == nil {
			return d.Failf("flit queue entry %d has no flit", i)
		}
		q.push(f)
	}
	return d.Err()
}

func (dl *delayLine) collect(t *types.MessageTable) {
	for i := dl.head; i < len(dl.q); i++ {
		t.Add(dl.q[i].f.Pkt.Msg)
	}
}

func (dl *delayLine) saveState(e *snapshot.Encoder, t *types.MessageTable) {
	e.Bool(dl.scheduled)
	e.Int(len(dl.q) - dl.head)
	for i := dl.head; i < len(dl.q); i++ {
		e.U64(uint64(dl.q[i].at))
		e.Int(dl.q[i].port)
		t.EncodeFlit(e, dl.q[i].f)
	}
}

func (dl *delayLine) loadState(d *snapshot.Decoder, t *types.MessageTable, ports int) error {
	dl.scheduled = d.Bool()
	n := d.Count()
	if d.Err() != nil {
		return d.Err()
	}
	dl.q = dl.q[:0]
	dl.head = 0
	for i := 0; i < n; i++ {
		at := sim.Tick(d.U64())
		port := loadIndex(d, 0, ports, "delay line port")
		f, err := t.DecodeFlit(d)
		if err != nil {
			return err
		}
		if f == nil {
			return d.Failf("delay line entry %d has no flit", i)
		}
		dl.q = append(dl.q, flight{at: at, f: f, port: port})
	}
	return d.Err()
}

// loadIndex decodes an index, failing the decoder unless lo <= v < hi: a
// restored index is later used unchecked to address router state.
func loadIndex(d *snapshot.Decoder, lo, hi int, what string) int {
	v := d.Int()
	if v < lo || v >= hi {
		d.Failf("%s %d out of range [%d, %d)", what, v, lo, hi)
	}
	return v
}

func saveResponse(e *snapshot.Encoder, r routing.Response) {
	e.Int(r.Port)
	e.Int(len(r.VCs))
	for _, vc := range r.VCs {
		e.Int(vc)
	}
}

func loadResponse(d *snapshot.Decoder, ports, vcs int) (routing.Response, error) {
	r := routing.Response{Port: loadIndex(d, 0, ports, "routing response port")}
	n := d.Count()
	if d.Err() != nil {
		return r, d.Err()
	}
	if n > 0 {
		r.VCs = make([]int, n)
		for i := range r.VCs {
			r.VCs[i] = loadIndex(d, 0, vcs, "routing response VC")
		}
	}
	return r, d.Err()
}

func (x *xbarSched) saveState(e *snapshot.Encoder) {
	e.Int(len(x.contenders))
	for _, c := range x.contenders {
		e.Int(c)
	}
	e.Int(x.lastGrant)
	e.Int(x.locked)
}

// loadState restores the scheduler of a router with the given number of
// input clients.
func (x *xbarSched) loadState(d *snapshot.Decoder, clients int) error {
	n := d.Count()
	if d.Err() != nil {
		return d.Err()
	}
	x.contenders = x.contenders[:0]
	for i := 0; i < n; i++ {
		x.contenders = append(x.contenders, loadIndex(d, 0, clients, "crossbar contender"))
	}
	x.lastGrant = loadIndex(d, -1, clients, "crossbar last grant")
	x.locked = loadIndex(d, -1, clients, "crossbar lock holder")
	return d.Err()
}

// saveState serializes the plumbing shared by all architectures: scheduling
// identity, downstream credits, the congestion sensor, and counters.
func (b *base) saveState(e *snapshot.Encoder) {
	b.SaveOrder(e)
	e.Int(len(b.downCred))
	for port := range b.downCred {
		e.Int(len(b.downCred[port]))
		for _, c := range b.downCred[port] {
			e.Int(c)
		}
	}
	congestion.SaveTracker(e, b.sensor)
	e.Bool(b.pipelineScheduled)
	e.U64(b.flitsRouted)
}

func (b *base) loadState(d *snapshot.Decoder) error {
	if err := b.LoadOrder(d); err != nil {
		return err
	}
	ports := d.Count()
	if d.Err() != nil {
		return d.Err()
	}
	if ports != len(b.downCred) {
		return d.Failf("router %s has %d ports, snapshot says %d", b.Name(), len(b.downCred), ports)
	}
	for port := 0; port < ports; port++ {
		vcs := d.Count()
		if d.Err() != nil {
			return d.Err()
		}
		if vcs != len(b.downCred[port]) {
			return d.Failf("router %s port %d has %d VCs, snapshot says %d", b.Name(), port, len(b.downCred[port]), vcs)
		}
		for vc := 0; vc < vcs; vc++ {
			b.downCred[port][vc] = d.Int()
		}
	}
	if err := congestion.LoadTracker(d, b.sensor); err != nil {
		return err
	}
	b.pipelineScheduled = d.Bool()
	b.flitsRouted = d.U64()
	return d.Err()
}

func (iv *inputVC) saveState(e *snapshot.Encoder, t *types.MessageTable) {
	iv.q.saveState(e, t)
	e.Int(iv.routeState)
	saveResponse(e, iv.resp)
	e.Int(iv.outPort)
	e.Int(iv.outVC)
}

func (iv *inputVC) loadState(d *snapshot.Decoder, t *types.MessageTable, ports, vcs int) error {
	if err := iv.q.loadState(d, t); err != nil {
		return err
	}
	iv.routeState = loadIndex(d, rsIdle, rsDone+1, "route state")
	resp, err := loadResponse(d, ports, vcs)
	if err != nil {
		return err
	}
	iv.resp = resp
	iv.outPort = loadIndex(d, -1, ports, "allocated output port")
	iv.outVC = loadIndex(d, -1, vcs, "allocated output VC")
	iv.granted = false
	return d.Err()
}

func saveIntSlice(e *snapshot.Encoder, s []int) {
	e.Int(len(s))
	for _, v := range s {
		e.Int(v)
	}
}

// loadIntSliceInto fills s, whose length the build fixes, with values in
// [lo, hi).
func loadIntSliceInto(d *snapshot.Decoder, s []int, lo, hi int, what string) error {
	n := d.Count()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(s) {
		return d.Failf("%s has %d entries, snapshot says %d", what, len(s), n)
	}
	for i := 0; i < n; i++ {
		s[i] = loadIndex(d, lo, hi, what)
	}
	return d.Err()
}

func (s *inputStage) collect(t *types.MessageTable) {
	for i := range s.in {
		s.in[i].q.collect(t)
	}
	s.dl.collect(t)
}

// saveState serializes the input stage. The holders go out one slice per
// output port.
func (s *inputStage) saveState(e *snapshot.Encoder, t *types.MessageTable) {
	s.xbar.SaveState(e)
	s.dl.saveState(e, t)
	for i := range s.in {
		s.in[i].saveState(e, t)
	}
	for port := 0; port < s.radix; port++ {
		saveIntSlice(e, s.holder[s.client(port, 0):s.client(port+1, 0)])
	}
	saveIntSlice(e, s.vcPending)
	e.Int(s.vcRotate)
	for _, sc := range s.sched {
		sc.saveState(e)
	}
}

func (s *inputStage) loadState(d *snapshot.Decoder, t *types.MessageTable) error {
	if err := s.xbar.LoadState(d); err != nil {
		return err
	}
	if err := s.dl.loadState(d, t, s.radix); err != nil {
		return err
	}
	for i := range s.in {
		if err := s.in[i].loadState(d, t, s.radix, s.vcs); err != nil {
			return err
		}
	}
	clients := len(s.in)
	for port := 0; port < s.radix; port++ {
		if err := loadIntSliceInto(d, s.holder[s.client(port, 0):s.client(port+1, 0)], -1, clients, "output VC holder"); err != nil {
			return err
		}
	}
	n := d.Count()
	if d.Err() != nil {
		return d.Err()
	}
	s.vcPending = s.vcPending[:0]
	for i := 0; i < n; i++ {
		s.vcPending = append(s.vcPending, loadIndex(d, 0, clients, "VC allocation request"))
	}
	s.vcRotate = d.Int()
	for _, sc := range s.sched {
		if err := sc.loadState(d, clients); err != nil {
			return err
		}
	}
	return d.Err()
}

func (o *outputStage) collect(t *types.MessageTable) {
	for i := range o.outQ {
		o.outQ[i].collect(t)
	}
}

// saveState serializes the output stage; the packet owners, when the
// architecture has them, go between the occupancies and the drain flags.
func (o *outputStage) saveState(e *snapshot.Encoder, t *types.MessageTable) {
	for i := range o.outQ {
		o.outQ[i].saveState(e, t)
	}
	saveIntSlice(e, o.outOcc)
	if o.outOwner != nil {
		saveIntSlice(e, o.outOwner)
	}
	for _, b := range o.outBusy {
		e.Bool(b)
	}
	saveIntSlice(e, o.outRR)
}

func (o *outputStage) loadState(d *snapshot.Decoder, t *types.MessageTable) error {
	for i := range o.outQ {
		if err := o.outQ[i].loadState(d, t); err != nil {
			return err
		}
	}
	if err := loadIntSliceInto(d, o.outOcc, 0, math.MaxInt, "output occupancy"); err != nil {
		return err
	}
	if o.outOwner != nil {
		if err := loadIntSliceInto(d, o.outOwner, -1, len(o.outOwner), "output owner"); err != nil {
			return err
		}
	}
	for i := range o.outBusy {
		o.outBusy[i] = d.Bool()
	}
	return loadIntSliceInto(d, o.outRR, 0, o.vcs, "output round robin")
}

// Collect implements Stater for the IQ architecture.
func (r *IQ) Collect(t *types.MessageTable) { r.inputStage.collect(t) }

// SaveState implements Stater for the IQ architecture.
func (r *IQ) SaveState(e *snapshot.Encoder, t *types.MessageTable) {
	r.base.saveState(e)
	r.inputStage.saveState(e, t)
	e.Int(len(r.nextChanStart))
	for _, tk := range r.nextChanStart {
		e.U64(uint64(tk))
	}
}

// LoadState implements Stater for the IQ architecture.
func (r *IQ) LoadState(d *snapshot.Decoder, t *types.MessageTable) error {
	if err := r.base.loadState(d); err != nil {
		return err
	}
	if err := r.inputStage.loadState(d, t); err != nil {
		return err
	}
	cs := d.Count()
	if d.Err() != nil {
		return d.Err()
	}
	if cs != len(r.nextChanStart) {
		return d.Failf("router %s has %d channel-start slots, snapshot says %d", r.Name(), len(r.nextChanStart), cs)
	}
	for i := 0; i < cs; i++ {
		r.nextChanStart[i] = sim.Tick(d.U64())
	}
	return d.Err()
}

// Collect implements Stater for the IOQ architecture.
func (r *IOQ) Collect(t *types.MessageTable) {
	r.inputStage.collect(t)
	r.outputStage.collect(t)
}

// SaveState implements Stater for the IOQ architecture.
func (r *IOQ) SaveState(e *snapshot.Encoder, t *types.MessageTable) {
	r.base.saveState(e)
	r.inputStage.saveState(e, t)
	r.outputStage.saveState(e, t)
}

// LoadState implements Stater for the IOQ architecture.
func (r *IOQ) LoadState(d *snapshot.Decoder, t *types.MessageTable) error {
	if err := r.base.loadState(d); err != nil {
		return err
	}
	if err := r.inputStage.loadState(d, t); err != nil {
		return err
	}
	return r.outputStage.loadState(d, t)
}

// Collect implements Stater for the OQ architecture.
func (r *OQ) Collect(t *types.MessageTable) {
	for i := range r.in {
		r.in[i].q.collect(t)
	}
	r.outputStage.collect(t)
	r.dl.collect(t)
}

// SaveState implements Stater for the OQ architecture. Its input VCs carry
// only a routed flag and the output VC: routing is synchronous and outPort
// unused.
func (r *OQ) SaveState(e *snapshot.Encoder, t *types.MessageTable) {
	r.base.saveState(e)
	r.dl.saveState(e, t)
	for i := range r.in {
		iv := &r.in[i]
		iv.q.saveState(e, t)
		e.Bool(iv.routeState == rsDone)
		saveResponse(e, iv.resp)
		e.Int(iv.outVC)
	}
	r.outputStage.saveState(e, t)
	for _, tk := range r.transfer {
		e.U64(uint64(tk))
	}
}

// LoadState implements Stater for the OQ architecture.
func (r *OQ) LoadState(d *snapshot.Decoder, t *types.MessageTable) error {
	if err := r.base.loadState(d); err != nil {
		return err
	}
	if err := r.dl.loadState(d, t, r.radix); err != nil {
		return err
	}
	for i := range r.in {
		iv := &r.in[i]
		if err := iv.q.loadState(d, t); err != nil {
			return err
		}
		iv.routeState = rsIdle
		if d.Bool() {
			iv.routeState = rsDone
		}
		resp, err := loadResponse(d, r.radix, r.vcs)
		if err != nil {
			return err
		}
		iv.resp = resp
		iv.outVC = loadIndex(d, -1, r.vcs, "output VC")
	}
	if err := r.outputStage.loadState(d, t); err != nil {
		return err
	}
	for i := range r.transfer {
		r.transfer[i] = sim.Tick(d.U64())
	}
	return d.Err()
}
