// Command perfbench is the repository benchmark. It runs one named workload
// with a given seed against the store, server and client built from this
// checkout, checks every answer, and prints its metrics: the end-to-end
// metrics of an untraced run, or with --trace 1 the per-layer metrics of a
// traced run. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
//
// README.md next to this file describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_kops", "Kops/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"pm_write_amp", "ratio"},
	{"space_amp", "ratio"},
	{"recovery_s", "s"},
}

// perLayer are the metrics a traced run reports, for every workload. A
// layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"serve.call_us_p50", "us"},
	{"serve.self_us_p50", "us"},
	{"wire.codec_ns_per_op", "ns"},
	{"wire.bytes_in_per_op", "B"},
	{"wire.bytes_out_per_op", "B"},
	{"server.reqs_per_read_batch", "ratio"},
	{"server.resps_per_flush", "ratio"},
	{"server.steered_frac", "ratio"},
	{"server.shed_frac", "ratio"},
	{"store.get_ns", "ns"},
	{"store.put_ns", "ns"},
	{"store.scan_page_us", "us"},
	{"store.getkv_ns", "ns"},
	{"store.putkv_ns", "ns"},
	{"store.deletekv_ns", "ns"},
	{"store.self_ns", "ns"},
	{"core.get_ns", "ns"},
	{"core.exchange_ns", "ns"},
	{"vlog.gc_passes", "count"},
	{"vlog.relocated_per_pass", "ratio"},
	{"vlog.reclaimed_bytes_per_user_byte", "ratio"},
	{"vlog.garbage_ratio_end", "ratio"},
	{"tpcc.neworder_us", "us"},
	{"tpcc.payment_us", "us"},
	{"tpcc.delivery_us", "us"},
	{"tpcc.orderstatus_us", "us"},
	{"tpcc.stocklevel_us", "us"},
	{"txn.flushed_lines_per_commit", "count"},
	{"txn.fences_per_commit", "count"},
	{"pmem.flushed_lines_per_op", "count"},
	{"pmem.fences_per_op", "count"},
	{"pmem.stores_per_op", "count"},
	{"pmem.loads_per_op", "count"},
	{"pmem.charged_reads_per_op", "count"},
	{"pmem.flush_stall_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// runOpts are one run's settings: the command line, plus the sizes the
// tests shrink.
type runOpts struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string
	size     sizes
}

// sizes are the workload dimensions; fullSizes is what the benchmark runs.
type sizes struct {
	serveKeys  int // serve-read preload
	serveRate  int // serve-read open-loop offered rate, requests/s
	churnKeys  int // kv-churn key count
	setups     int // set-ups per run (setup_s is their median)
	tpccSetups int // tpcc-txn's set-up takes ~70 ms, so it repeats more
}

var fullSizes = sizes{serveKeys: 1 << 20, serveRate: serveOpenRate, churnKeys: 200_000, setups: 3, tpccSetups: 9}

// result is what a workload hands back: counts, metric values, and notes
// for the human-readable part of the output.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runOpts) (*result, error){
	"serve-read": runServeRead,
	"kv-churn":   runKVChurn,
	"tpcc-txn":   runTPCC,
}

func main() {
	workload := flag.String("workload", "", "workload to run: serve-read, kv-churn or tpcc-txn")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", "", "directory the traced run writes its spans to")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-read|kv-churn|tpcc-txn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	opts := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, traceDir: *traceDir, size: fullSizes}
	res, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	if err := report(os.Stdout, *workload, res, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the notes and every metric of defs by name and unit, then
// the JSON summary line. Only a run whose oracles all passed gets here, so
// the summary always says correct.
func report(w *os.File, workload string, res *result, defs []metricDef) error {
	fmt.Fprintf(w, "workload %s\n", workload)
	for _, n := range res.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  %-36s %14.6f ratio (%d of %d ops)\n", "fail_frac",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	out := summary{Correct: true, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "  %-36s %14.6f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// layerDefaults returns a per-layer metric map with every metric at 0, the
// value of a layer the workload does not reach.
func layerDefaults() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
