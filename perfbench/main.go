// Command perfbench is SuperSim's host-cost benchmark. It builds one
// workload's settings document from a seed, times core.Build and
// Simulation.Run over repeated runs, checks every run's simulated output
// against an oracle, and prints its metrics as one JSON line.
//
//	perfbench --workload fb_ugal_ioq --seed 1 --seconds 50 --trace 0
//
// --trace 0 is the timed pass and prints the end-to-end metrics; --trace 1
// is a separate traced pass that prints the per-layer metrics (CPU profile
// attribution, layer counters, engine probes and the layer drivers). See
// NOTES.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"supersim/internal/config"
)

// commit identifies the simulator sources the binary was built from; run.sh
// sets it at link time.
var commit = "unknown"

// bench is one invocation: a workload at a seed and length.
type bench struct {
	w       workload
	seed    uint64
	sample  uint64 // sample_duration override in ticks for the self-test; 0 is the default length
	seconds time.Duration
	trace   bool

	// telemetry enables the simulator's telemetry, whose engine probes the
	// traced pass reads on parallel workloads.
	telemetry bool
}

// settings is the settings document of the seed's input j.
func (b bench) settings(j int) *config.Settings {
	cfg := b.w.build(simSeed(b.seed, j), b.sample)
	if b.telemetry {
		cfg.Set("simulation.telemetry.enabled", true)
	}
	return cfg
}

// length is the Blast sample_duration in ticks.
func (b bench) length() uint64 {
	if b.sample != 0 {
		return b.sample
	}
	return b.w.sample
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics accumulates a result's metrics; non-finite values are reported
// as 0 so the line stays valid JSON.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see NOTES.md)")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 50, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: timed pass (end-to-end metrics); 1: traced pass (per-layer metrics)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seed == 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seed >= 1, --seconds >= 0, --trace 0|1\n",
			workloadNames())
		os.Exit(2)
	}
	b := bench{w: w, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	if err := run(b, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run executes one invocation and writes its report: an environment line,
// any trace spans, and the result as the last line.
func run(b bench, out io.Writer) error {
	var res result
	var extra map[string]any
	var spans []span
	if b.trace {
		res, extra, spans = traced(b)
	} else {
		res, extra = timed(b)
	}
	env := map[string]any{
		"workload":   b.w.name,
		"seed":       b.seed,
		"seconds":    b.seconds.Seconds(),
		"trace":      b.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc":       gogc(),
		"go":         runtime.Version(),
		"commit":     commit,
	}
	for k, v := range extra {
		env[k] = v
	}
	if err := writeJSONLine(out, map[string]any{"env": env}); err != nil {
		return err
	}
	for _, sp := range spans {
		if err := writeJSONLine(out, map[string]any{"span": sp}); err != nil {
			return err
		}
	}
	return writeJSONLine(out, res)
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100 (default)"
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// timed is the timed pass: repeated untraced runs, end-to-end metrics. The
// run-time metrics are reported at the reference host speed: each raw
// figure is scaled by probeRefS over the median of the host-speed probes run
// between the pass's runs (probe.go). The raw figures and the scale are in
// the env line.
func timed(b bench) (result, map[string]any) {
	refs := map[int]string{}
	var probes []float64
	rs := runFor(b, b.seconds, 1, refs, hooks{before: func() {
		for k := 0; k < probesPerRun; k++ {
			probes = append(probes, hostProbe())
		}
	}})
	probeS := median(probes)
	scale := probeRefS / probeS

	runS := column(rs.ok, func(r runSample) float64 { return r.runS })
	tailS, tailP := tail(runS)
	raw := map[string]float64{
		"setup_s":     median(column(rs.ok, func(r runSample) float64 { return r.buildS })),
		"run_s":       median(runS),
		"run_s_tail":  tailS,
		"flits_per_s": flitsPerSecond(rs.ok),
		"cpu_s":       median(column(rs.ok, func(r runSample) float64 { return r.cpuS })),
	}
	m := metrics{}
	m.set("setup_s", raw["setup_s"], "s") // Build is not slowed by the host's drift; see NOTES.md
	m.set("run_s", raw["run_s"]*scale, "s")
	m.set("run_s_tail", raw["run_s_tail"]*scale, "s")
	m.set("flits_per_s", raw["flits_per_s"]/scale, "1/s")
	m.set("cpu_s", raw["cpu_s"]*scale, "s")
	m.set("allocs_per_run", median(column(rs.ok, func(r runSample) float64 { return float64(r.mallocs) })), "count")
	m.set("alloc_mb_per_run", median(column(rs.ok, func(r runSample) float64 { return float64(r.bytes) / 1e6 })), "MB")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	m.set("ok_run_ratio", float64(rs.attempted-rs.failed)/float64(rs.attempted), "ratio")
	extra := map[string]any{
		"runs":            len(rs.ok),
		"run_s_tail_pct":  tailP,
		"failed_runs":     float64(rs.failed) / float64(rs.attempted),
		"digests":         refs,
		"committed":       expectedDigest[b.w.name],
		"sample_duration": b.length(),
		"probe_s":         probeS,
		"probes":          len(probes),
		"host_scale":      scale,
		"raw":             raw,
	}
	if len(rs.ok) > 0 {
		extra["outcome"] = rs.ok[0].out
	}
	if len(rs.errs) > 0 {
		extra["errors"] = rs.errs
	}
	return result{Correct: rs.failed == 0 && len(rs.ok) > 0, Attempted: rs.attempted,
		Failed: rs.failed, Metrics: m}, extra
}

// flitsPerSecond is delivered flits per host second of Run: the median over
// the pass's runs of each run's rate. Per-run rates keep inputs whose work
// differs comparable, and the median, like the probe's, is not pulled by
// the few runs a burst of contention slows.
func flitsPerSecond(rs []runSample) float64 {
	return median(column(rs, func(r runSample) float64 { return float64(r.out.FlitsRecv) / r.runS }))
}
