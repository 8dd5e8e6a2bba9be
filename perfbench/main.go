// Command perfbench is the repository's benchmark: three seeded workloads
// driven through the public entry points of every layer (minc, isa, vm
// with its cache model and memory, brew, specmgr, brewsvc, spstore, obs
// and telemetry; oracle checks correctness). Build and run it through
// run.sh from the repository root:
//
//	bash perfbench/run.sh --workload stencil --seed 1 --seconds 15 --trace 0
//
// It prints a human-readable report on standard error, every metric by
// name with its unit and sample count, and as the last line of standard
// output one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the measured
// loop traced (obs and telemetry on, the benchmark's own spans recorded
// around each layer call) and reports the per-layer metrics instead. Any
// wrong result makes the command exit non-zero.
//
// --selfcheck runs each workload twice with one seed and once with the
// next, and fails unless the deterministic metrics are bit-identical
// across the same seed and the input draw changes with the seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// buildDir holds everything a run writes (run.sh builds there too).
const buildDir = ".bench_build"

// tracedShare is the part of a traced run's measured time spent traced;
// the rest runs untraced so obs.overhead_pct has a same-run baseline.
const tracedShare = 0.6

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics every workload reports on an
// untraced run. An operation is the workload's unit of work: one kernel
// sweep (stencil), one program rewritten at both efforts, scaled to 1,000
// traced instructions (cold-corpus), one cache-hit request (service-mix).
// The tail is p90: cold-corpus rewrites about 80 programs a run, which
// leaves eight beyond p90; a higher percentile would rest on fewer.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"gen_cycles_ratio", "ratio"},
}

// perLayer are the metrics a traced run reports. A layer a workload does
// not exercise reports 0.
var perLayer = []metricDef{
	{"minc.compile_ms", "ms"},
	{"isa.decode_ns_per_instr", "ns"},
	{"isa.encode_ns_per_instr", "ns"},
	{"vm.call_ms", "ms"},
	{"vm.ns_per_instr", "ns"},
	{"vm.instrs", "count"},
	{"cache.l1_miss_ratio", "ratio"},
	{"cache.l3_misses", "count"},
	{"vm.jit_live_kb", "KiB"},
	{"vm.jit_free_kb", "KiB"},
	{"brew.do_ms", "ms"},
	{"brew.ns_per_traced_instr", "ns"},
	{"brew.allocs_per_do", "count"},
	{"brew.alloc_kb_per_do", "KiB"},
	{"brew.traced_instrs", "count"},
	{"brew.emitted_final", "count"},
	{"brew.pass_work", "count"},
	{"brew.code_bytes", "bytes"},
	{"brew.degraded", "count"},
	{"brewsvc.submit_ns_p50", "ns"},
	{"brewsvc.hit_ratio", "ratio"},
	{"brewsvc.coalesce_hits", "count"},
	{"brewsvc.traces", "count"},
	{"brewsvc.promotions", "count"},
	{"brewsvc.rejected", "count"},
	{"brewsvc.queue_us_p99", "us"},
	{"specmgr.install_us_p50", "us"},
	{"specmgr.variants", "count"},
	{"spstore.puts", "count"},
	{"spstore.warm_hits", "count"},
	{"spstore.reval_ms", "ms"},
	{"spstore.reval_fails", "count"},
	{"spstore.quarantined", "count"},
	{"go.gc_cycles", "count"},
	{"go.heap_peak_mb", "MiB"},
	{"obs.overhead_pct", "%"},
	{"bench.unattributed_pct", "%"},
	{"self_pct.minc", "%"},
	{"self_pct.isa", "%"},
	{"self_pct.vm", "%"},
	{"self_pct.brew", "%"},
	{"self_pct.brewsvc", "%"},
	{"self_pct.spstore", "%"},
	{"self_pct.oracle", "%"},
}

// shareLayers are the layers whose self time the ledger splits the
// measured loop into ("bench" is the unattributed remainder).
var shareLayers = []string{"minc", "isa", "vm", "brew", "brewsvc", "spstore", "oracle"}

var workloads = map[string]func(*bench) error{
	"stencil":     runStencil,
	"cold-corpus": runCorpus,
	"service-mix": runService,
}

// reportLine is one named number of the human-readable report.
type reportLine struct {
	name  string
	value float64
	unit  string
	n     int // sample count; 0 for counts and derived values
}

// bench is one workload run: its command-line inputs and what it measured.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	rec      *recorder // spans of a traced run; nil otherwise

	attempted, failed, wrong int64
	// degraded counts operations that completed by falling back to the
	// original function with a named reason (a rewriter refusal, checked
	// by the oracle like any rewrite); they are not failed operations.
	degraded int64
	wrongs   []string // first few wrong results, for the report

	setup   []float64 // seconds per set-up
	ops     []float64 // per-operation samples of the untraced pass, ms
	opsPerS float64
	gen     []float64 // rewritten/original emulated-cycle ratios

	report []reportLine
	det    map[string]float64 // deterministic metrics
	layer  map[string]float64 // per-layer metrics
}

func newBench(workload string, seed int64, seconds time.Duration, trace bool) *bench {
	b := &bench{workload: workload, seed: seed, seconds: seconds, trace: trace,
		det: map[string]float64{}, layer: map[string]float64{}}
	if trace {
		b.rec = newRecorder()
	}
	return b
}

func (b *bench) add(name string, value float64, unit string, n int) {
	b.report = append(b.report, reportLine{name, value, unit, n})
}

// wrongResult records a result that disagrees with its reference.
func (b *bench) wrongResult(format string, args ...any) {
	b.wrong++
	if len(b.wrongs) < 8 {
		b.wrongs = append(b.wrongs, fmt.Sprintf(format, args...))
	}
}

// timeSetup runs one set-up under a traced lane and records its time.
func (b *bench) timeSetup(f func(ln *lane) error) error {
	ln := b.rec.lane("bench.setup")
	t0 := time.Now()
	err := f(ln)
	b.setup = append(b.setup, time.Since(t0).Seconds())
	ln.close()
	return err
}

// pass is what one run of a workload's measured loop produced.
type pass struct {
	ops  []float64 // per-operation samples, ms
	perS float64   // operations per second
}

// measure runs the workload's measured loop for the run's duration. An
// untraced run measures once, untraced. A traced run measures first with
// obs, telemetry and the benchmark's spans on — the per-layer numbers come
// from that pass, which the loop reads through the recorder it is given —
// then untraced for the rest of the time; obs.overhead_pct compares the
// two passes' mean operation cost.
func (b *bench) measure(loop func(d time.Duration, rec *recorder) (pass, error)) error {
	if !b.trace {
		p, err := loop(b.seconds, nil)
		b.ops, b.opsPerS = p.ops, p.perS
		return err
	}
	obs.Reset()
	telemetry.Default.Reset()
	obs.Enable()
	telemetry.Enable()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	peak := startHeapSampler()
	traced, err := loop(time.Duration(tracedShare*float64(b.seconds)), b.rec)
	b.layer["go.heap_peak_mb"] = peak() / (1 << 20)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.layer["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	obs.Disable()
	telemetry.Disable()
	if err != nil {
		return err
	}
	plain, err := loop(time.Duration((1-tracedShare)*float64(b.seconds)), nil)
	if err != nil {
		return err
	}
	if m := mean(plain.ops); m > 0 {
		b.layer["obs.overhead_pct"] = 100 * (mean(traced.ops)/m - 1)
	}
	return nil
}

// startHeapSampler polls the live heap size until the returned function is
// called, which stops the poller and returns the peak in bytes.
func startHeapSampler() func() float64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() float64 {
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64())
	}
	peak := read()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				peak = math.Max(peak, read())
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		return math.Max(peak, read())
	}
}

// ledger fills the per-layer self-time shares of the traced measured loop.
func (b *bench) ledger() {
	for _, l := range shareLayers {
		b.layer["self_pct."+l] = b.rec.selfPct("bench.timed", l)
	}
	b.layer["bench.unattributed_pct"] = b.rec.selfPct("bench.timed", "bench")
	b.layer["minc.compile_ms"] = b.rec.meanMS("minc.compile")
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndValues derives the end-to-end metrics from the untraced pass.
func (b *bench) endToEndValues() map[string]float64 {
	ops := append([]float64(nil), b.ops...)
	return map[string]float64{
		"setup_s":          median(append([]float64(nil), b.setup...)),
		"op_ms_p50":        quantile(ops, 0.50),
		"op_ms_p90":        quantile(ops, 0.90),
		"ops_per_s":        b.opsPerS,
		"gen_cycles_ratio": geomean(b.gen),
	}
}

func (b *bench) printReport() {
	w := os.Stderr
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%.0f trace=%v\n", b.workload, b.seed, b.seconds.Seconds(), b.trace)
	lines := append([]reportLine(nil), b.report...)
	lines = append(lines, reportLine{"setup_s", median(append([]float64(nil), b.setup...)), "s", len(b.setup)})
	if b.attempted > 0 {
		// Errors, degrades, sheds and wrong results over operations attempted.
		lines = append(lines, reportLine{"failed_share", float64(b.failed+b.wrong+b.degraded) / float64(b.attempted), "ratio", int(b.attempted)},
			reportLine{"degraded", float64(b.degraded), "count", 0})
	}
	for _, l := range lines {
		if l.n > 0 {
			fmt.Fprintf(w, "  %-26s %14.6g %-6s n=%d\n", l.name, l.value, l.unit, l.n)
		} else {
			fmt.Fprintf(w, "  %-26s %14.6g %s\n", l.name, l.value, l.unit)
		}
	}
	if b.trace {
		fmt.Fprintln(w, "  per-layer (traced pass):")
		for _, m := range perLayer {
			fmt.Fprintf(w, "    %-28s %14.6g %s\n", m.name, b.layer[m.name], m.unit)
		}
	}
	keys := make([]string, 0, len(b.det))
	for k := range b.det {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	det := make([]string, 0, len(keys))
	for _, k := range keys {
		det = append(det, fmt.Sprintf("%s=%v", k, b.det[k]))
	}
	fmt.Fprintf(w, "  deterministic: %s\n", strings.Join(det, " "))
	for _, s := range b.wrongs {
		fmt.Fprintf(w, "  WRONG: %s\n", s)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "stencil, cold-corpus or service-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 15, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	selfcheck := flag.Bool("selfcheck", false, "check deterministic metrics across seeds instead of measuring")
	flag.Parse()

	if *selfcheck {
		return selfCheck(*workload, *seed)
	}
	f, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload stencil|cold-corpus|service-mix, --seconds > 0, --trace 0|1\n")
		return 2
	}
	b := newBench(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err := f(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		return 1
	}
	if b.trace {
		b.ledger()
	}
	b.printReport()

	res := result{Correct: b.wrong == 0, Attempted: b.attempted, Failed: b.failed + b.wrong,
		Metrics: map[string]metricValue{}}
	if b.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{b.layer[m.name], m.unit}
		}
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "  spans written to %s\n", path)
	} else {
		vals := b.endToEndValues()
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// selfCheck runs the named workload (all of them when name is empty) with
// a short measured time: twice with seed, once with seed+1.
func selfCheck(name string, seed int64) int {
	names := []string{"stencil", "cold-corpus", "service-mix"}
	if name != "" {
		names = []string{name}
	}
	ok := true
	for _, n := range names {
		f, found := workloads[n]
		if !found {
			fmt.Fprintf(os.Stderr, "selfcheck: unknown workload %q\n", n)
			return 2
		}
		var dets []map[string]float64
		for _, s := range []int64{seed, seed, seed + 1} {
			b := newBench(n, s, time.Second, false)
			if err := f(b); err != nil {
				fmt.Fprintf(os.Stderr, "selfcheck %s seed %d: %v\n", n, s, err)
				return 1
			}
			if b.wrong > 0 {
				fmt.Fprintf(os.Stderr, "selfcheck %s seed %d: %d wrong results\n", n, s, b.wrong)
				ok = false
			}
			dets = append(dets, b.det)
		}
		if diff := diffDet(dets[0], dets[1]); diff != "" {
			fmt.Fprintf(os.Stderr, "selfcheck %s: same seed, different deterministic metrics: %s\n", n, diff)
			ok = false
		}
		if dets[0]["draw_hash"] == dets[2]["draw_hash"] {
			fmt.Fprintf(os.Stderr, "selfcheck %s: seeds %d and %d drew the same inputs\n", n, seed, seed+1)
			ok = false
		}
		if m, has := dets[0]["bench_pr8_cycles_match"]; has && m != 1 {
			fmt.Fprintf(os.Stderr, "selfcheck %s: stencil cycles differ from BENCH_PR8.json\n", n)
			ok = false
		}
		fmt.Fprintf(os.Stderr, "selfcheck %s: %d deterministic metrics compared\n", n, len(dets[0]))
	}
	if !ok {
		return 1
	}
	fmt.Fprintln(os.Stderr, "selfcheck: ok")
	return 0
}

// diffDet describes the first difference between two deterministic metric
// sets, or returns "" when they are bit-identical.
func diffDet(a, b map[string]float64) string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		va, oka := a[k]
		vb, okb := b[k]
		if oka != okb || math.Float64bits(va) != math.Float64bits(vb) {
			return fmt.Sprintf("%s: %v vs %v", k, va, vb)
		}
	}
	return ""
}
