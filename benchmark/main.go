// Command xbench is the repository's benchmark: one command that runs a
// named workload in-process through the library's public entry points,
// checks every output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a separate traced window).
//
// Usage (from the repository root; benchmark/run.sh builds and runs it):
//
//	xbench --workload plan-table1|flow-dense|serve-mix --seed N --seconds S --trace 0|1
//
// A run sets the workload up several times (setup_s is the median), then
// measures one untraced window of --seconds seconds. Set-ups and window
// steps during which the hypervisor gave more of the host's CPUs to other
// guests than the run's median are left out of the timings (see
// README.md, "Calm steps"). With --trace 1 a second,
// traced window follows; its spans stay in memory and are written to
// .bench_build/xbench/trace-<workload>-<seed>.json when the run ends, and the
// per-layer metrics (self times, engine counters, tracing overhead against
// the untraced window) replace the end-to-end ones in the result.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check makes the
// command exit 1 after printing it; a modelled metric (control_bits,
// test_time_norm) that diverges between repetitions or, under seed 1, from
// its pinned value makes it exit 2 without a result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run writes: traces and scratch directories.
// It lives under the checkout's ignored build directory.
const outDir = ".bench_build/xbench"

// runDeadline bounds one run, build excluded.
const runDeadline = 170 * time.Second

// setupReps is how many times a run sets its workload up; setup_s is the
// median of these.
const setupReps = 3

// errNondeterministic marks a modelled metric that did not repeat exactly.
var errNondeterministic = errors.New("modelled metric diverged")

// bench is one workload. setup builds the inputs from the seed (it is
// called setupReps times; the last inputs are kept). measure runs one
// window of at least one op and returns what it saw; tr is nil in the
// untraced window. verify re-checks the window's outputs from the outside
// after timing stops and returns the number of failed checks.
type bench interface {
	setup(ctx context.Context, seed int64, tr *tracer) error
	measure(ctx context.Context, budget time.Duration, tr *tracer) (*window, error)
	verify(ctx context.Context, w *window) (failed int, err error)
}

// window is the outcome of one measurement window.
type window struct {
	// lat holds one latency per op, in milliseconds.
	lat []float64
	// ops is the number of completed ops.
	ops int
	// steps holds measureLoop's steps in order.
	steps []stepStats
	// attempted and failed count individually checked outputs.
	attempted, failed int
	// bits and testTime are the modelled metrics, identical for every
	// repetition of the workload's op within the window.
	bits     int64
	testTime float64
	// peakRSS is the process's peak resident set during the window, in MiB.
	peakRSS float64
	// layers holds the traced window's per-layer metrics.
	layers map[string]float64
}

// stepStats is one measureLoop step: its ops' latencies are
// w.lat[from:to], busy is the time the step timed itself, cpu the process
// CPU time (user+system, all threads) it used, and steal the share of the
// host's CPUs the hypervisor gave to other guests meanwhile (-1 when
// unknown).
type stepStats struct {
	from, to  int
	busy, cpu time.Duration
	steal     float64
}

// measureLoop runs step until the window's busy time would pass budget,
// at least once. A step is one op (plan-table1, flow-dense) or one epoch of
// many ops (serve-mix); it records its ops' latencies in w and returns the
// time it took, timed by itself so that checks it makes afterwards stay out
// of the window. The loop stops starting steps once the median step would
// no longer fit.
func measureLoop(ctx context.Context, budget time.Duration, w *window, step func() (time.Duration, error)) error {
	var busy time.Duration
	var durations []float64
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		from, cpu0, steal := len(w.lat), cpuTime(), newStealMeter()
		d, err := step()
		if err != nil {
			return err
		}
		st := stepStats{from, len(w.lat), d, cpuTime() - cpu0, steal.share()}
		w.steps = append(w.steps, st)
		fmt.Fprintf(os.Stderr, "xbench: step %d: %d ops in %.1f ms, cpu %.1f ms, steal %.1f%%\n",
			len(w.steps), st.to-st.from, ms(st.busy), ms(st.cpu), 100*st.steal)
		busy += d
		durations = append(durations, ms(d))
		if busy+time.Duration(median(durations)*float64(time.Millisecond)) > budget {
			return nil
		}
	}
}

// calm returns the steps whose steal share is at most the median step
// steal: the calmer half, or all of them when the steal is unknown or
// even. The steps of a window, like the set-ups of a run, do the same
// work, so they differ in time mainly by how much of the host other guests
// took meanwhile.
func calm(steps []stepStats) []stepStats {
	steals := make([]float64, len(steps))
	for i, st := range steps {
		if st.steal < 0 {
			return steps
		}
		steals[i] = st.steal
	}
	limit := median(steals)
	var out []stepStats
	for _, st := range steps {
		if st.steal <= limit {
			out = append(out, st)
		}
	}
	return out
}

// timing is what the end-to-end timing metrics are computed from.
type timing struct {
	lat       []float64
	ops       int
	busy, cpu time.Duration
	steal     float64 // busy-weighted mean steal share
}

func (w *window) timing(steps []stepStats) timing {
	var t timing
	for _, st := range steps {
		t.lat = append(t.lat, w.lat[st.from:st.to]...)
		t.ops += st.to - st.from
		t.busy += st.busy
		t.cpu += st.cpu
		t.steal += st.steal * st.busy.Seconds()
	}
	t.steal /= t.busy.Seconds()
	return t
}

// reportSteal writes the window's steal, over all steps and over the calm
// ones, to standard error.
func (w *window) reportSteal(what string) {
	for _, st := range w.steps {
		if st.steal < 0 {
			fmt.Fprintf(os.Stderr, "xbench: host steal during the %s: unknown\n", what)
			return
		}
	}
	kept := calm(w.steps)
	all, quiet := w.timing(w.steps), w.timing(kept)
	fmt.Fprintf(os.Stderr, "xbench: host steal during the %s: %.1f%% of %d CPUs; %d of %d steps kept at %.1f%%\n",
		what, 100*all.steal, runtime.NumCPU(), len(kept), len(w.steps), 100*quiet.steal)
}

// addOp records one completed op that took d.
func (w *window) addOp(d time.Duration) {
	w.ops++
	w.lat = append(w.lat, ms(d))
}

// setModelled records a repetition's modelled metrics and reports
// divergence from earlier repetitions.
func (w *window) setModelled(first bool, bits int64, testTime float64) error {
	if first {
		w.bits, w.testTime = bits, testTime
		return nil
	}
	if bits != w.bits || testTime != w.testTime {
		return fmt.Errorf("%w: control_bits %d then %d, test_time_norm %v then %v",
			errNondeterministic, w.bits, bits, w.testTime, testTime)
	}
	return nil
}

// pinned holds the modelled metrics each workload must reproduce under
// seed 1 (see README.md).
type pinned struct {
	bits     int64
	testTime float64
}

var workloads = map[string]struct {
	make func() bench
	pin  pinned
}{
	"plan-table1": {func() bench { return &planTable1{} }, pinned{118086026, 1.412873421113421}},
	"flow-dense":  {func() bench { return &flowDense{} }, pinned{147751742, 8}},
	"serve-mix":   {func() bench { return &serveMix{} }, pinned{12976658, 1.0650064726264727}},
}

// host is the record every run carries.
type host struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
}

// commit returns the VCS revision the binary was built from, with
// "+dirty" when the tree had uncommitted changes, or "unknown" outside a
// repository.
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
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

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("xbench", flag.ContinueOnError)
	name := fs.String("workload", "plan-table1", "workload: plan-table1, flow-dense or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed; profile, circuit and stimulus seeds derive from it")
	seconds := fs.Int("seconds", 20, "length of one measurement window")
	trace := fs.Int("trace", 0, "1 adds a traced window and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "xbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	h := host{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	hostLine, _ := json.Marshal(h)
	fmt.Println(string(hostLine))

	// A run must end within 180 seconds; past this deadline every layer's
	// context-aware call aborts and the run reports no result.
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := execute(ctx, wl.make(), wl.pin, h)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		return 2
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute sets the workload up, measures, verifies and assembles the
// result. A non-nil error means no result may be reported.
func execute(ctx context.Context, b bench, pin pinned, h host) (*result, error) {
	var tr *tracer
	if h.Trace {
		tr = newTracer()
	}
	// Set-up is timed in process CPU time: on a shared host the wall time
	// of a short set-up swings with other tenants' load. Each set-up starts
	// from a collected heap, so that it does not pay for collecting the
	// previous one's garbage; setup_s is the median of the calm set-ups.
	setups := make([]stepStats, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		c0, steal := cpuTime(), newStealMeter()
		if err := b.setup(ctx, h.Seed, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, stepStats{cpu: cpuTime() - c0, steal: steal.share()})
	}
	var setupS []float64
	for _, st := range calm(setups) {
		setupS = append(setupS, st.cpu.Seconds())
	}
	budget := time.Duration(h.Seconds) * time.Second

	resetPeakRSS()
	w, err := b.measure(ctx, budget, nil)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	w.peakRSS = peakRSSMB()
	w.reportSteal("untraced window")
	failed, err := b.verify(ctx, w)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	w.failed += failed
	if h.Seed == 1 && (w.bits != pin.bits || w.testTime != pin.testTime) {
		return nil, fmt.Errorf("%w: seed 1 gives control_bits %d, test_time_norm %v; documented %d, %v",
			errNondeterministic, w.bits, w.testTime, pin.bits, pin.testTime)
	}
	res := &result{Attempted: w.attempted, Failed: w.failed}
	if !h.Trace {
		res.Metrics = endToEnd(w, median(setupS))
		res.Correct = w.failed == 0
		return res, nil
	}

	tw, err := b.measure(ctx, budget, tr)
	if err != nil {
		return nil, fmt.Errorf("traced measure: %w", err)
	}
	tfailed, err := b.verify(ctx, tw)
	if err != nil {
		return nil, fmt.Errorf("traced verify: %w", err)
	}
	tw.failed += tfailed
	tw.reportSteal("traced window")
	if tw.bits != w.bits || tw.testTime != w.testTime {
		return nil, fmt.Errorf("%w: traced window gives control_bits %d, test_time_norm %v; untraced %d, %v",
			errNondeterministic, tw.bits, tw.testTime, w.bits, w.testTime)
	}
	res.Attempted += tw.attempted
	res.Failed += tw.failed
	res.Correct = res.Failed == 0
	res.Metrics = perLayer(tw.layers, tr, tw.ops)
	base, traced := median(w.timing(calm(w.steps)).lat), median(tw.timing(calm(tw.steps)).lat)
	res.Metrics["trace.overhead_pct"] = metric{100 * (traced - base) / base, "%"}
	if err := writeTrace(h, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd assembles the untraced window's metrics. The timings come from
// the window's calm steps.
func endToEnd(w *window, setupS float64) map[string]metric {
	t := w.timing(calm(w.steps))
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"ops_per_s":      {float64(t.ops) / t.busy.Seconds(), "1/s"},
		"cpu_ms_per_op":  {ms(t.cpu) / float64(t.ops), "ms"},
		"latency_p50_ms": {quantile(t.lat, 0.5), "ms"},
		"latency_p90_ms": {quantile(t.lat, 0.9), "ms"},
		"success_frac":   {1 - float64(w.failed)/float64(w.attempted), "fraction"},
		"control_bits":   {float64(w.bits), "bits"},
		"test_time_norm": {w.testTime, "ratio"},
		"peak_rss_mb":    {w.peakRSS, "MB"},
	}
}

// layerUnits lists every per-layer metric with its unit; metrics a workload
// does not exercise report 0.
var layerUnits = map[string]string{
	"workload.generate_ms":         "ms",
	"core.run_ms":                  "ms",
	"core.baselines_ms":            "ms",
	"core.splits_scored":           "1/op",
	"core.maskedx_recomputes":      "1/op",
	"core.state_cache_hit_ratio":   "ratio",
	"core.score_delta_ratio":       "ratio",
	"core.rounds_accepted_ratio":   "ratio",
	"core.cellindex_cells_scanned": "1/op",
	"correlation.cells_counted":    "1/op",
	"netlist.generate_ms":          "ms",
	"atpg.stimuli_ms":              "ms",
	"sim.simulate_ms":              "ms",
	"xmap.extract_ms":              "ms",
	"flow.partition_ms":            "ms",
	"flow.replay_ms":               "ms",
	"fault.faultsim_ms":            "ms",
	"flow.cycles_replayed":         "1/op",
	"xcancel.halts":                "1/op",
	"fault.ppsfp_gates_evaluated":  "1/op",
	"fault.ppsfp_gates_per_fault":  "ratio",
	"fault.ppsfp_dropped_ratio":    "ratio",
	"io.decode_ms":                 "ms",
	"io.digest_ms":                 "ms",
	"io.encode_ms":                 "ms",
	"server.hit_ms":                "ms",
	"server.miss_ms":               "ms",
	"server.cache_hit_ratio":       "ratio",
	"server.cache_disk_writes":     "1/miss",
	"server.partition_ms":          "ms",
	"server.wait_ms":               "ms",
	"jobs.job_ms":                  "ms",
	"jobs.checkpoints_written":     "1/job",
	"jobs.spool_retries":           "count",
	"go.alloc_mb_per_op":           "MB",
	"trace.remainder_ms":           "ms",
	"trace.overhead_pct":           "%",
	"trace.op_ms":                  "ms",
}

// perLayer assembles the traced window's metrics: every name in
// layerUnits, filled from the workload's own layer values and from the
// span self times.
func perLayer(layers map[string]float64, tr *tracer, ops int) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for n, u := range layerUnits {
		out[n] = metric{0, u}
	}
	for n, v := range tr.selfPerOp(ops) {
		if u, ok := layerUnits[n]; ok {
			out[n] = metric{v, u}
		}
	}
	for n, v := range layers {
		if u, ok := layerUnits[n]; ok {
			out[n] = metric{v, u}
		}
	}
	return out
}

func writeTrace(h host, tr *tracer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", h.Workload, h.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Host  host   `json:"host"`
		Spans []span `json:"spans"`
	}{h, tr.spans}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintln(os.Stderr, "xbench: trace written to", path)
	return nil
}

// resetPeakRSS returns freed heap to the OS and resets the kernel's
// resident-set high-water mark, so that peakRSSMB afterwards reports the
// peak of what follows rather than of set-up. Where the reset is refused
// the mark keeps covering the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the resident-set high-water mark (VmHWM) since the
// last resetPeakRSS, falling back to the process's peak from getrusage.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stealMeter measures the share of the host's CPUs that the hypervisor
// gave to other guests (steal time in /proc/stat) over an interval.
type stealMeter struct {
	t0    time.Time
	ticks float64 // steal so far, in USER_HZ ticks; negative if unknown
}

func newStealMeter() stealMeter { return stealMeter{time.Now(), stealTicks()} }

// share returns the steal share since the meter started, or -1 where
// /proc/stat cannot be read.
func (m stealMeter) share() float64 {
	t1 := stealTicks()
	if m.ticks < 0 || t1 < 0 {
		return -1
	}
	const userHZ = 100
	return ratio(t1-m.ticks, time.Since(m.t0).Seconds()*userHZ*float64(runtime.NumCPU()))
}

// stealTicks returns the steal field of /proc/stat's aggregate cpu line,
// or -1 where it cannot be read.
func stealTicks() float64 {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return v
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
