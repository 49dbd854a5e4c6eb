package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"supersim/internal/core"
	"supersim/internal/stats"
	"supersim/internal/workload/apps"
)

// defaultSeed is the seed whose digests are committed in expectedDigest.
const defaultSeed = 1

// expectedDigest holds each workload's output digest at the default seed and
// default length. The model has no reference measurement, so the digest is a
// regression oracle: any change to simulated behaviour changes it.
var expectedDigest = map[string]string{
	"fb_ugal_ioq":    "bc147592ff3087cd",
	"fb_ugal_ioq_w2": "bc147592ff3087cd",
	"torus_iq_m32":   "6c4c11bfcab185c6",
	"clos_oq_sense":  "cfcb8f7f6934d05d",
}

// outcome is the simulated output of one run: everything the digest covers.
type outcome struct {
	Events    uint64
	EndTick   uint64
	FlitsSent uint64
	FlitsRecv uint64
	Apps      []appOutcome
}

type appOutcome struct {
	Samples  int
	Accepted float64 // delivered load over the sample window
	Mean     float64 // latency in ticks
	P50      float64
	P99      float64
	P999     float64
}

// collectOutcome reads a finished simulation's outputs. The Summarize call
// per application is the one the traced run times as stats.summarize_ms.
func collectOutcome(sm *core.Simulation, res core.Result) outcome {
	o := outcome{Events: res.Events, EndTick: res.EndTick}
	for i := 0; i < sm.Net.NumTerminals(); i++ {
		nif := sm.Net.Interface(i)
		o.FlitsSent += nif.FlitsSent()
		o.FlitsRecv += nif.FlitsReceived()
	}
	for i := 0; i < sm.Workload.NumApps(); i++ {
		b, ok := sm.Workload.App(i).(*apps.Blast)
		if !ok {
			continue
		}
		rec := b.Stats()
		start, stop := b.SampleWindow()
		s := rec.Summarize()
		o.Apps = append(o.Apps, appOutcome{
			Samples: s.Count,
			Accepted: stats.Throughput(rec.Flits(), sm.Net.NumTerminals(), stop-start,
				sm.Net.ChannelPeriod()),
			Mean: s.Mean, P50: s.P50, P99: s.P99, P999: s.P999,
		})
	}
	return o
}

// digest hashes the outcome into a short hex string. Floats enter with every
// digit, so any change to a latency or throughput changes the digest.
func (o outcome) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d end=%d sent=%d recv=%d", o.Events, o.EndTick, o.FlitsSent, o.FlitsRecv)
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for i, a := range o.Apps {
		fmt.Fprintf(&b, " app%d:samples=%d,accepted=%s,mean=%s,p50=%s,p99=%s,p999=%s",
			i, a.Samples, g(a.Accepted), g(a.Mean), g(a.P50), g(a.P99), g(a.P999))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// check applies the per-run oracle: flit conservation, agreement with the
// reference digest (the first run of the same inputs, or the serial run of
// the same model), and, at the default seed and length, the committed digest.
func (o outcome) check(w workload, seed uint64, defaultLength bool, reference string) error {
	if o.FlitsSent != o.FlitsRecv {
		return fmt.Errorf("flits sent %d != flits received %d", o.FlitsSent, o.FlitsRecv)
	}
	if len(o.Apps) == 0 || o.Apps[0].Samples == 0 {
		return fmt.Errorf("no sampled messages")
	}
	d := o.digest()
	if reference != "" && d != reference {
		return fmt.Errorf("digest %s differs from reference %s", d, reference)
	}
	if seed == defaultSeed && defaultLength {
		if want := expectedDigest[w.name]; d != want {
			return fmt.Errorf("digest %s differs from committed %s", d, want)
		}
	}
	return nil
}
