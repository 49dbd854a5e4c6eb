package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the self-test checks the output against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// invoke runs one pass in-process and returns its environment line (the
// first), its spans and its result (the last line).
func invoke(t *testing.T, b bench) (map[string]any, []span, result) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(b, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("output has %d lines, want an env line and a result", len(lines))
	}
	var env struct {
		Env map[string]any `json:"env"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &env); err != nil {
		t.Fatal(err)
	}
	var spans []span
	for _, l := range lines[1 : len(lines)-1] {
		var sp struct {
			Span span `json:"span"`
		}
		if err := json.Unmarshal([]byte(l), &sp); err != nil {
			t.Fatalf("span line %q: %v", l, err)
		}
		spans = append(spans, sp.Span)
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d errors=%v",
			b.w.name, res.Correct, res.Attempted, res.Failed, env.Env["errors"])
	}
	for _, k := range []string{"nproc", "gomaxprocs", "gogc", "go", "commit", "seed"} {
		if _, ok := env.Env[k]; !ok {
			t.Errorf("%s: env line lacks %q", b.w.name, k)
		}
	}
	return env.Env, spans, res
}

func checkNames(t *testing.T, who string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", who, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", who, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", who, w.Name, m.Unit, w.Unit)
		}
	}
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	return w
}

// TestTimedPass runs one timed run of every workload, including those
// BENCHMARK.json does not list, at the default seed and length, where the
// committed digests apply, and checks every end-to-end metric is printed
// with its unit.
func TestTimedPass(t *testing.T) {
	s := loadSpec(t)
	for _, sw := range s.Workloads {
		mustWorkload(t, sw.Name)
	}
	for _, w := range workloads {
		env, _, res := invoke(t, bench{w: w, seed: defaultSeed})
		checkNames(t, w.name, res.Metrics, s.EndToEnd)
		if d := env["digests"].(map[string]any)["0"]; d != expectedDigest[w.name] {
			t.Errorf("%s: digest %v, committed %s", w.name, d, expectedDigest[w.name])
		}
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: metric %s = %v, want > 0", w.name, name, m.Value)
			}
		}
		scale, _ := env["host_scale"].(float64)
		rawRun, _ := env["raw"].(map[string]any)["run_s"].(float64)
		if n, _ := env["probes"].(float64); n < probesPerRun || scale <= 0 {
			t.Errorf("%s: %v probes, host scale %v", w.name, n, scale)
		}
		if got, want := res.Metrics["run_s"].Value, rawRun*scale; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: run_s %v, want raw %v x scale %v", w.name, got, rawRun, scale)
		}
	}
}

// TestProbeFixedWork checks the host-speed probe does the same work on
// every call, so only the host's speed moves its time.
func TestProbeFixedWork(t *testing.T) {
	var sums [3]uint64
	for i := range sums {
		before := probeSink
		if s := hostProbe(); s <= 0 {
			t.Fatalf("probe took %v s", s)
		}
		sums[i] = probeSink - before
	}
	if sums[0] == 0 || sums[0] != sums[1] || sums[1] != sums[2] {
		t.Errorf("probe results %v, want equal and non-zero", sums)
	}
}

// TestParallelMatchesSerial checks the serial and 2-worker runs of the
// flattened butterfly produce equal digests on a seed other than the
// default, at a tiny length.
func TestParallelMatchesSerial(t *testing.T) {
	const seed, sample = 7, 20
	b := bench{w: mustWorkload(t, "fb_ugal_ioq"), seed: seed, sample: sample}
	serial, _, _ := invoke(t, b)
	b.w = mustWorkload(t, "fb_ugal_ioq_w2")
	parallel, _, _ := invoke(t, b)
	s, p := serial["digests"].(map[string]any)["0"], parallel["digests"].(map[string]any)["0"]
	if s == nil || s == "" || s != p {
		t.Fatalf("serial digest %v, 2-worker digest %v", s, p)
	}
}

// TestTracedPass runs the traced pass of every workload at a tiny length and
// checks every per-layer metric is printed with its unit and that the layer
// attribution leaves at most 10% of CPU samples unattributed.
func TestTracedPass(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		_, spans, res := invoke(t, bench{w: w, seed: 3, sample: 20, seconds: 2 * time.Second, trace: true})
		checkNames(t, w.name, res.Metrics, s.PerLayer)
		byRun := map[string][]string{}
		for _, sp := range spans {
			if sp.EndNS < sp.StartNS {
				t.Errorf("%s: span %+v ends before it starts", w.name, sp)
			}
			byRun[sp.RunID] = append(byRun[sp.RunID], sp.Name)
		}
		if len(byRun) < 2 {
			t.Errorf("%s: spans of %d traced runs, want at least 2", w.name, len(byRun))
		}
		for id, names := range byRun {
			if strings.Join(names, ",") != "traced_run,build,run,report" {
				t.Errorf("%s: run %s has spans %v", w.name, id, names)
			}
		}
		if other := res.Metrics["other.cpu_share"].Value; other > 0.10 {
			t.Errorf("%s: other.cpu_share = %.3f, want <= 0.10", w.name, other)
		}
		var sum float64
		for _, l := range layers {
			sum += res.Metrics[l+".cpu_share"].Value
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: layer shares sum to %.4f, want 1", w.name, sum)
		}
		if res.Metrics["trace.profile_s"].Value <= 0 {
			t.Errorf("%s: traced runs recorded no CPU samples", w.name)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(30 - i) // 30, 29, ..., 1
	}
	v, p := tail(xs)
	if v != 20 || p != 100*20.0/30 {
		t.Errorf("tail of 1..30 = %v at p%v, want 20 (ten values above) at p66.7", v, p)
	}
	if v, p := tail([]float64{3, 1, 2}); v != 3 || p != 100 {
		t.Errorf("tail of three values = %v at p%v, want the maximum", v, p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"supersim/internal/sim.(*eventHeap).pop", "supersim/internal/sim/event.go"}}, "sim.queue"},
		{[]frame{{"runtime.chanrecv", "runtime/chan.go"},
			{"supersim/internal/sim.(*Engine).runShard", "supersim/internal/sim/parallel.go"}}, "sim.engine"},
		{[]frame{{"runtime.mallocgc", "runtime/malloc.go"},
			{"supersim/internal/types.(*Pool).NewMessage", "supersim/internal/types/pool.go"}}, "types"},
		{[]frame{{"runtime.scanobject", "runtime/mgcmark.go"},
			{"runtime.gcBgMarkWorker", "runtime/mgc.go"}}, "gc"},
		{[]frame{{"supersim/internal/router.(*xbarSched).pick", "supersim/internal/router/xbarsched.go"}}, "xbar_alloc"},
		{[]frame{{"supersim/internal/network/hyperx.(*HyperX).route", "supersim/internal/network/hyperx/hyperx.go"}}, "routing"},
		{[]frame{{"runtime.futex", "runtime/os_linux.go"}, {"runtime.mstart", "runtime/proc.go"}}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
