package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"supersim/internal/telemetry"
)

// spansDoc assembles a Figure-5-style settings document (torus under tornado
// traffic, verification enabled) around one router block, so the span
// decomposition property can be checked on every router architecture.
func spansDoc(routerBlock string) string {
	return fmt.Sprintf(`{
	  "simulation": {
	    "seed": 777,
	    "verify": {"enabled": true, "watchdog_epoch": 10000}
	  },
	  "network": {
	    "topology": "torus",
	    "dimensions": [4, 4],
	    "concentration": 1,
	    "channel": {"latency": 4, "period": 2},
	    "injection": {"latency": 2},
	    "router": %s
	  },
	  "workload": {
	    "applications": [{
	      "type": "blast",
	      "injection_rate": 0.25,
	      "message_size": 4,
	      "max_packet_size": 2,
	      "warmup_duration": 400,
	      "sample_duration": 1200,
	      "traffic": {"type": "tornado", "widths": [4, 4], "concentration": 1}
	    }]
	  }
	}`, routerBlock)
}

// TestSpanDecompositionExact is the span recorder's property test: with every
// message sampled, each emitted record's components must sum exactly to the
// message's end-to-end latency — no unattributed ticks — on all three router
// architectures. (The recorder itself panics on an inexact decomposition at
// Finish; this test additionally confirms the property survives JSONL
// serialization and that the stream is complete and well-formed.)
func TestSpanDecompositionExact(t *testing.T) {
	archs := []struct {
		name, router string
	}{
		{"input_queued", `{
		  "architecture": "input_queued",
		  "num_vcs": 4,
		  "input_buffer_depth": 8,
		  "crossbar_latency": 2
		}`},
		{"output_queued", `{
		  "architecture": "output_queued",
		  "num_vcs": 4,
		  "input_buffer_depth": 8,
		  "queue_latency": 2,
		  "output_queue_depth": 16
		}`},
		{"input_output_queued", `{
		  "architecture": "input_output_queued",
		  "num_vcs": 4,
		  "input_buffer_depth": 8,
		  "crossbar_latency": 2,
		  "output_queue_depth": 8,
		  "speedup": 2
		}`},
	}
	for _, arch := range archs {
		t.Run(arch.name, func(t *testing.T) {
			spansPath := filepath.Join(t.TempDir(), "spans.jsonl")
			_, _, _, sm, _ := runForSamples(t, spansDoc(arch.router), []string{
				"simulation.telemetry.enabled=bool=true",
				"simulation.telemetry.spans_file=string=" + spansPath,
				"simulation.telemetry.spans_sample=float=1.0",
			})
			sp := sm.Telemetry.Spans()
			if sp == nil {
				t.Fatal("span recorder not attached")
			}
			f, err := os.Open(spansPath)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			records := uint64(0)
			hdr, err := telemetry.ReadSpans(f, func(rec telemetry.SpanRecord) error {
				records++
				if got := rec.ComponentSum(); got != rec.E2E {
					t.Errorf("message %d: components sum to %d, end-to-end latency is %d (%+v)",
						rec.Msg, got, rec.E2E, rec)
				}
				if rec.Hops != len(rec.PerHop)-1 {
					t.Errorf("message %d: hops %d != len(perhop)-1 = %d", rec.Msg, rec.Hops, len(rec.PerHop)-1)
				}
				if rec.Hops < 1 {
					t.Errorf("message %d traversed no routers", rec.Msg)
				}
				// Hop 0 is the source interface: it has no router pipeline, so
				// only the injection link's wire time may be charged there.
				if h := rec.PerHop[0]; h.VCAlloc != 0 || h.SWAlloc != 0 || h.Xbar != 0 || h.Output != 0 {
					t.Errorf("message %d: router stages charged to the source interface hop: %+v", rec.Msg, h)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("spans stream unreadable: %v", err)
			}
			if hdr.Sample != 1.0 {
				t.Errorf("header sample = %v, want 1.0", hdr.Sample)
			}
			if records == 0 {
				t.Fatal("no span records at full sampling")
			}
			if records != sp.Records() {
				t.Errorf("stream has %d records, recorder counted %d", records, sp.Records())
			}
		})
	}
}

// TestSpansSchemaRejection covers the stream-versioning contract: ReadSpans
// must reject a stream with a different schema name or version, and a stream
// with no header at all.
func TestSpansSchemaRejection(t *testing.T) {
	cases := map[string]string{
		"wrong schema":  `{"schema":"something-else","version":1,"sample":1}`,
		"wrong version": `{"schema":"supersim-spans","version":999,"sample":1}`,
		"no header":     ``,
	}
	for name, hdr := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := os.WriteFile(path, []byte(hdr+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := telemetry.ReadSpans(f, func(telemetry.SpanRecord) error { return nil }); err == nil {
				t.Fatal("incompatible stream accepted")
			}
		})
	}
}
