package main

import "time"

// The host-speed probe is a fixed piece of work that uses none of the
// simulator's code: a small discrete-event loop over a binary heap, with
// the same kind of pointer-heavy state and short-lived allocations as the
// simulator. The timed pass runs it between simulation runs, so its median
// time tracks how fast the host is during the pass (shared hosts drift by
// 25% and more over minutes), and host-time metrics are reported at the
// speed at which the probe takes probeRefS. A change to the simulator
// cannot move the probe.
const (
	probeNodes   = 1 << 16 // node table, about 4 MB
	probePending = 1500    // events in the heap, like fb_ugal_ioq's queue
	probeEvents  = 150000  // events per probe
	probesPerRun = 3       // probes before each timed run

	// probeRefS is the reference probe time, a round figure near the
	// probe's median on a 2-vCPU VM (Go 1.24). It sets the scale only.
	probeRefS = 0.040
)

type probeMsg struct {
	src, dst int32
	hops     int32
	payload  [6]uint64
}

type probeNode struct {
	last  *probeMsg
	count uint64
	state [6]uint64
}

type probeEvent struct {
	at   uint64
	node int32
	msg  *probeMsg
}

// probeSink keeps the probe's results alive so the compiler cannot drop
// its work.
var probeSink uint64

// hostProbe runs the probe once and returns its host time in seconds. Its
// work is the same on every call.
func hostProbe() float64 {
	t0 := time.Now()
	nodes := make([]probeNode, probeNodes)
	q := make([]probeEvent, 0, probePending+1)
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	push := func(e probeEvent) {
		q = append(q, e)
		for i := len(q) - 1; i > 0; {
			p := (i - 1) / 2
			if q[p].at <= q[i].at {
				break
			}
			q[p], q[i] = q[i], q[p]
			i = p
		}
	}
	pop := func() probeEvent {
		top := q[0]
		n := len(q) - 1
		q[0] = q[n]
		q = q[:n]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < n && q[l].at < q[m].at {
				m = l
			}
			if r < n && q[r].at < q[m].at {
				m = r
			}
			if m == i {
				break
			}
			q[m], q[i] = q[i], q[m]
			i = m
		}
		return top
	}
	for i := 0; i < probePending; i++ {
		push(probeEvent{at: rnd() % 100, node: int32(rnd() % probeNodes)})
	}
	for i := 0; i < probeEvents; i++ {
		e := pop()
		n := &nodes[e.node]
		n.count++
		n.state[n.count%6] += e.at
		m := e.msg
		if m == nil || m.hops > 4 {
			m = &probeMsg{src: e.node, dst: int32(rnd() % probeNodes)}
		}
		m.hops++
		m.payload[m.hops%6] ^= n.state[0]
		n.last = m
		push(probeEvent{at: e.at + 1 + rnd()%100, node: int32(rnd() % probeNodes), msg: m})
	}
	for i := range nodes {
		probeSink += nodes[i].count + nodes[i].state[1]
	}
	return time.Since(t0).Seconds()
}
