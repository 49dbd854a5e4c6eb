package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"supersim/internal/config"
	"supersim/internal/sim"
	"supersim/internal/ssparse"
	"supersim/internal/telemetry"
	"supersim/internal/workload/apps"
)

// runForSamples builds and runs one simulation from doc (plus overrides) and
// returns the sampled-transaction log bytes — the full per-message record
// stream ssparse consumes — plus the flit conservation totals.
func runForSamples(t *testing.T, doc string, overrides []string) (sampleLog []byte, injected, retired uint64, sm *Simulation, res Result) {
	t.Helper()
	cfg := config.MustParse(doc)
	if err := cfg.ApplyOverrides(overrides); err != nil {
		t.Fatal(err)
	}
	sm = Build(cfg)
	res, err := sm.Run()
	if err != nil {
		t.Fatal(err)
	}
	blast := sm.Workload.App(0).(*apps.Blast)
	var buf bytes.Buffer
	if err := ssparse.Write(&buf, blast.Stats().Samples()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sm.Verify.Injected(), sm.Verify.Retired(), sm, res
}

// TestTelemetryObservationOnly is the end-to-end determinism gate for the
// telemetry subsystem: the same seeded simulation run with snapshotting and
// flit tracing fully enabled must produce a byte-identical sampled-transaction
// log (every message's create/receive times, latencies, and hop counts) and
// identical flit conservation totals and Result as the run with telemetry
// disabled. Telemetry schedules no events — bins are taken at run barriers —
// so even the executed-event count and the final tick must not move.
func TestTelemetryObservationOnly(t *testing.T) {
	gc := goldenCases()[0] // torus tornado, verification enabled
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "telemetry.jsonl")
	tracePath := filepath.Join(dir, "trace.json")
	spansPath := filepath.Join(dir, "spans.jsonl")

	// Both runs have verification on (gc.doc), so the stall diagnostician is
	// armed behind the watchdog in each; the instrumented run additionally
	// enables snapshotting, tracing, and span recording together.
	base, baseInj, baseRet, _, baseRes := runForSamples(t, gc.doc, nil)
	tele, teleInj, teleRet, sm, teleRes := runForSamples(t, gc.doc, []string{
		"simulation.telemetry.enabled=bool=true",
		"simulation.telemetry.bin=uint=250",
		"simulation.telemetry.snapshot_file=string=" + snapPath,
		"simulation.telemetry.trace_file=string=" + tracePath,
		"simulation.telemetry.trace_sample=float=0.5",
		"simulation.telemetry.spans_file=string=" + spansPath,
		"simulation.telemetry.spans_sample=float=0.5",
	})
	if sm.Telemetry == nil {
		t.Fatal("telemetry run did not attach telemetry")
	}

	if !bytes.Equal(base, tele) {
		t.Errorf("sampled-transaction logs differ between telemetry-off (%d bytes) and telemetry-on (%d bytes) runs",
			len(base), len(tele))
	}
	if baseInj != teleInj || baseRet != teleRet {
		t.Errorf("flit conservation totals differ: off=%d/%d on=%d/%d",
			baseInj, baseRet, teleInj, teleRet)
	}
	if baseRes != teleRes {
		t.Errorf("Result differs: off=%+v on=%+v", baseRes, teleRes)
	}

	// The telemetry run must also have produced usable artifacts: a parseable
	// JSONL stream whose baseline bin covers channels, routers, interfaces and
	// the workload, and a valid Chrome trace document.
	sf, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	metrics := map[string]bool{}
	records := 0
	if err := telemetry.ReadRecords(sf, func(rec telemetry.Record) error {
		metrics[rec.Metric] = true
		records++
		return nil
	}); err != nil {
		t.Fatalf("snapshot stream unreadable: %v", err)
	}
	if records == 0 {
		t.Fatal("snapshot stream is empty")
	}
	for _, m := range []string{"chan_flits", "flits_routed", "iface_flits_sent", "offered_flits", "delivered_flits", "msg_latency"} {
		if !metrics[m] {
			t.Errorf("snapshot stream missing metric %q", m)
		}
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no events at 50%% sampling")
	}
	// Async begin/end events come in pairs: every sampled flit enters and
	// (by flit conservation) leaves the network.
	if len(doc.TraceEvents)%2 != 0 {
		t.Fatalf("trace has %d events, want an even begin/end count", len(doc.TraceEvents))
	}

	// The spans stream must be valid and exact, and its histograms must have
	// reached the registry snapshot stream (the critical-path report).
	spf, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer spf.Close()
	spanRecs := uint64(0)
	if _, err := telemetry.ReadSpans(spf, func(rec telemetry.SpanRecord) error {
		spanRecs++
		if rec.ComponentSum() != rec.E2E {
			t.Errorf("message %d decomposition inexact: %+v", rec.Msg, rec)
		}
		return nil
	}); err != nil {
		t.Fatalf("spans stream unreadable: %v", err)
	}
	if spanRecs == 0 {
		t.Fatal("no span records at 50% sampling")
	}
	if spanRecs != sm.Telemetry.Spans().Records() {
		t.Errorf("spans stream has %d records, recorder counted %d", spanRecs, sm.Telemetry.Spans().Records())
	}
	for _, m := range []string{"span_e2e", "span_queue", "span_eject", "span_wire", "span_vc_alloc"} {
		if !metrics[m] {
			t.Errorf("snapshot stream missing span metric %q", m)
		}
	}
}

// stripEngineLines removes engine_* metric lines from a Prometheus
// exposition. The engine metrics exist only on parallel runs and several
// (rounds, stalls, blocked_ns) are goroutine-schedule- or wall-clock-
// dependent, so cross-worker-count comparisons exclude them; everything the
// simulation computes must match exactly.
func stripEngineLines(prom []byte) []byte {
	var out bytes.Buffer
	for _, line := range bytes.Split(prom, []byte("\n")) {
		if bytes.Contains(line, []byte("engine_")) {
			continue
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// TestShardedObserversByteIdentical is the tentpole gate for shard-aware
// observability: on every golden topology, the Chrome trace JSON, the spans
// JSONL stream, the sampled-transaction log, the periodic JSONL snapshot
// stream at bin 500 and the Prometheus exposition (both minus the engine_*
// self-metrics, which carry wall-clock and schedule-dependent values) of a
// parallel run at workers {2,4} must be byte-identical to the serial run.
// Per-shard recording lanes tagged with partition-independent event stamps,
// merged at seal time, and bins taken at run barriers are what makes this
// hold. At every worker count the final progress document must agree with
// the run's Result.
func TestShardedObserversByteIdentical(t *testing.T) {
	type artifacts struct {
		log, trace, spans, snaps, prom []byte
	}
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			run := func(workers int) artifacts {
				dir := t.TempDir()
				tracePath := filepath.Join(dir, "trace.json")
				spansPath := filepath.Join(dir, "spans.jsonl")
				snapPath := filepath.Join(dir, "telemetry.jsonl")
				ov := []string{
					"simulation.telemetry.enabled=bool=true",
					"simulation.telemetry.bin=uint=500",
					"simulation.telemetry.snapshot_file=string=" + snapPath,
					"simulation.telemetry.trace_file=string=" + tracePath,
					"simulation.telemetry.trace_sample=float=0.5",
					"simulation.telemetry.spans_file=string=" + spansPath,
					"simulation.telemetry.spans_sample=float=0.5",
				}
				if workers > 1 {
					ov = append(ov, fmt.Sprintf("simulation.workers=uint=%d", workers))
				}
				log, _, _, sm, res := runForSamples(t, gc.doc, ov)
				if p := sm.Telemetry.ProgressDoc(); p.Tick != uint64(res.EndTick) || p.Events != res.Events {
					t.Errorf("workers=%d final progress tick=%d events=%d, Result end=%d events=%d",
						workers, p.Tick, p.Events, res.EndTick, res.Events)
				}
				if workers > 1 {
					if sm.Shards == nil {
						t.Fatalf("workers=%d did not produce a parallel partition", workers)
					}
					// The engine introspection must be live on parallel runs:
					// one shard doc per shard, every shard committed to the
					// end, the host shard's windows counted.
					docs := sm.Telemetry.ShardDocs()
					if len(docs) != len(sm.Shards) {
						t.Fatalf("ShardDocs has %d entries, want %d", len(docs), len(sm.Shards))
					}
					for _, d := range docs {
						if d.Windows == 0 {
							t.Errorf("shard %d committed no windows", d.ID)
						}
					}
				} else if len(sm.Telemetry.ShardDocs()) != 0 {
					t.Fatal("serial run has shard docs")
				}
				trace, err := os.ReadFile(tracePath)
				if err != nil {
					t.Fatal(err)
				}
				spans, err := os.ReadFile(spansPath)
				if err != nil {
					t.Fatal(err)
				}
				snaps, err := os.ReadFile(snapPath)
				if err != nil {
					t.Fatal(err)
				}
				var pb bytes.Buffer
				if err := sm.Telemetry.Registry().WritePrometheus(&pb); err != nil {
					t.Fatal(err)
				}
				if workers > 1 && !bytes.Contains(pb.Bytes(), []byte("engine_windows")) {
					t.Error("parallel exposition is missing engine_* metrics")
				}
				return artifacts{log: log, trace: trace, spans: spans,
					snaps: stripEngineLines(snaps), prom: stripEngineLines(pb.Bytes())}
			}
			serial := run(1)
			if len(serial.trace) == 0 || len(serial.spans) == 0 || len(serial.snaps) == 0 {
				t.Fatal("serial run produced empty observer streams")
			}
			for _, w := range []int{2, 4} {
				par := run(w)
				if !bytes.Equal(serial.trace, par.trace) {
					t.Errorf("workers=%d trace differs from serial (%d vs %d bytes)", w, len(par.trace), len(serial.trace))
				}
				if !bytes.Equal(serial.spans, par.spans) {
					t.Errorf("workers=%d spans differ from serial (%d vs %d bytes)", w, len(par.spans), len(serial.spans))
				}
				if !bytes.Equal(serial.snaps, par.snaps) {
					t.Errorf("workers=%d snapshot stream (minus engine_*) differs from serial", w)
				}
				if !bytes.Equal(serial.log, par.log) {
					t.Errorf("workers=%d sampled-transaction log differs from serial", w)
				}
				if !bytes.Equal(serial.prom, par.prom) {
					t.Errorf("workers=%d Prometheus exposition (minus engine_*) differs from serial", w)
				}
			}
		})
	}
}

// TestEngineMetricsCheckpointRestore pins engine-metric snapshot safety: a
// parallel checkpointed run's engine_* values ride the registry section, a
// restore into the same worker count re-creates them, and an immediate
// re-snapshot at the checkpoint tick is byte-identical — the same
// import/export equivalence the rest of the simulator state obeys. Span
// recording is enabled (fold-only) so the checkpoint barrier also exercises
// lane sealing mid-run.
func TestEngineMetricsCheckpointRestore(t *testing.T) {
	gc := goldenCases()[0]
	cfg := config.MustParse(gc.doc)
	cfg.Set("simulation.workers", uint64(2))
	cfg.Set("simulation.telemetry.enabled", true)
	cfg.Set("simulation.telemetry.spans_sample", 1.0)
	sm := Build(cfg)
	if sm.Shards == nil {
		t.Fatal("workers=2 did not produce a parallel partition")
	}
	type snap struct {
		tick sim.Tick
		data []byte
	}
	var snaps []snap
	if _, err := sm.RunCheckpointed(500, func(tick sim.Tick, data []byte) error {
		snaps = append(snaps, snap{tick, append([]byte(nil), data...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("run produced no checkpoints")
	}
	var pb bytes.Buffer
	if err := sm.Telemetry.Registry().WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(pb.Bytes(), []byte(`supersim_engine_windows{component="shard1"}`)) {
		t.Fatal("parallel run did not register per-shard engine metrics")
	}

	last := snaps[len(snaps)-1]
	rm, tick, err := Restore(last.data, 2)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if tick != last.tick {
		t.Fatalf("restore tick = %d, want %d", tick, last.tick)
	}
	var rb bytes.Buffer
	if err := rm.Telemetry.Registry().WritePrometheus(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(rb.Bytes(), []byte("supersim_engine_")) {
		t.Fatal("restored registry is missing engine_* metrics")
	}
	again, err := rm.Snapshot(tick)
	if err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	if !bytes.Equal(last.data, again) {
		t.Fatalf("re-snapshot after restore differs: %d vs %d bytes", len(again), len(last.data))
	}
}

// TestTelemetryProgressDoc checks the run-progress document reflects a
// completed run: final phase "done" and a tick/metric population consistent
// with the simulation that produced it.
func TestTelemetryProgressDoc(t *testing.T) {
	gc := goldenCases()[0]
	_, _, _, sm, _ := runForSamples(t, gc.doc, []string{
		"simulation.telemetry.enabled=bool=true",
		"simulation.telemetry.bin=uint=500",
	})
	p := sm.Telemetry.ProgressDoc()
	if p.Phase != "done" {
		t.Fatalf("final phase = %q, want done", p.Phase)
	}
	if p.Tick == 0 || p.Events == 0 || p.Metrics == 0 {
		t.Fatalf("progress document not populated: %+v", p)
	}
}

// TestTelemetryStreamErrorsReturned points each telemetry output stream at a
// device that rejects every write: the run must return an error naming the
// stream, never nil and never a panic, both serially and sharded.
func TestTelemetryStreamErrorsReturned(t *testing.T) {
	const full = "/dev/full"
	if _, err := os.Stat(full); err != nil {
		t.Skipf("%s not available: %v", full, err)
	}
	gc := goldenCases()[0]
	for _, stream := range []struct{ key, name string }{
		{"snapshot_file", "snapshot stream"},
		{"trace_file", "trace stream"},
		{"spans_file", "spans stream"},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", stream.key, workers), func(t *testing.T) {
				cfg := config.MustParse(gc.doc)
				if err := cfg.ApplyOverrides([]string{
					"simulation.telemetry.enabled=bool=true",
					"simulation.telemetry." + stream.key + "=string=" + full,
					fmt.Sprintf("simulation.workers=uint=%d", workers),
				}); err != nil {
					t.Fatal(err)
				}
				sm := Build(cfg)
				var err error
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("run panicked: %v", r)
						}
					}()
					_, err = sm.Run()
				}()
				if err == nil {
					t.Fatalf("run writing %s to %s returned nil", stream.key, full)
				}
				if !strings.Contains(err.Error(), stream.name) {
					t.Fatalf("error %q does not name the %s", err, stream.name)
				}
			})
		}
	}
}
