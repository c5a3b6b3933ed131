// Command xhybrid runs the hybrid X-handling flow on an X-location map:
// analyze its correlation structure, partition the patterns, and report the
// control-bit and test-time accounting against the baselines.
//
// Usage:
//
//	xhybrid analyze   (-workload ckt-b | -in xmap.json) [-seed N]
//	xhybrid partition (-workload ckt-b | -in xmap.json) [-m 32] [-q 7]
//	                  [-strategy <registry name>] [-workers N] [-v]
//	xhybrid example   # the paper's Figure 4-6 worked example
//	xhybrid verify    [-cells N] [-patterns K] [-m 16] [-q 3] [-seed S]
//	                  [-strategy <registry name>] [-workers N]
//	                  # run the circuit flow (xhybrid.RunFlowCtx): build a
//	                  # circuit, simulate it, program the hybrid, replay the
//	                  # responses through the hardware models; PASS only
//	                  # when the flow's preservation verdict holds
//	xhybrid convert   (-workload ckt-b | -in xmap.json) -out xmap.xmb
//	                  # re-serialize an X map between the text, JSON and
//	                  # binary wire formats (format by file extension)
//
// Observability (any subcommand):
//
//	-stats            print the per-stage breakdown (rounds, splits scored,
//	                  halts, wall time per stage) after the run
//	-trace text|json  same breakdown in an explicit format (json emits the
//	                  full snapshot for machine consumption)
//	-cpuprofile f     write a CPU profile; -memprofile f a heap profile
//	-pprof addr       serve net/http/pprof (e.g. localhost:6060) for live
//	                  inspection of long replay runs
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"xhybrid"
	"xhybrid/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	workloadName := fs.String("workload", "", "named workload: ckt-a, ckt-b or ckt-c")
	inFile := fs.String("in", "", "X-location JSON file (see cmd/cktgen)")
	seed := fs.Int64("seed", 0, "workload generation seed (0 = profile default)")
	misrSize := fs.Int("m", 32, "X-canceling MISR size")
	q := fs.Int("q", 7, "X-free combinations per halt")
	strategy := fs.String("strategy", "paper", "strategy registry name: "+strings.Join(xhybrid.Strategies(), ", "))
	workers := fs.Int("workers", 0, "worker goroutines for the partitioning hot loops (0 = all CPUs)")
	verbose := fs.Bool("v", false, "print the per-round trace and partitions")
	stats := fs.Bool("stats", false, "print a per-stage observability breakdown after the run")
	trace := fs.String("trace", "", "print the observability snapshot after the run: text or json")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cells := fs.Int("cells", 128, "verify: scan cells (multiple of the chain count 16)")
	patterns := fs.Int("patterns", 96, "verify: test patterns")
	outFile := fs.String("out", "-", "convert: output file; format by extension (.txt text, .xmb/.bin binary, else JSON), - for JSON on stdout")

	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	rec, finishObs := startObs(*stats, *trace, *cpuprofile, *memprofile, *pprofAddr)

	switch cmd {
	case "analyze", "partition":
		x, err := load(*workloadName, *inFile, *seed)
		if err != nil {
			die(err)
		}
		if cmd == "analyze" {
			rec.Time("analyze", func() { analyze(x) })
		} else {
			partition(x, xhybrid.Options{MISRSize: *misrSize, Q: *q, Strategy: *strategy, Seed: *seed, Workers: *workers, Stats: rec}, *verbose)
		}
	case "example":
		partition(xhybrid.PaperExample(), xhybrid.Options{MISRSize: 10, Q: 2, Stats: rec}, true)
	case "verify":
		verify(*cells, *patterns, *misrSize, *q, *seed, *strategy, *workers, rec)
	case "report":
		x, err := load(*workloadName, *inFile, *seed)
		if err != nil {
			die(err)
		}
		reportMD(x, xhybrid.Options{MISRSize: *misrSize, Q: *q, Strategy: *strategy, Seed: *seed, Workers: *workers, Stats: rec})
	case "convert":
		convert(*workloadName, *inFile, *seed, *outFile)
	default:
		usage()
	}
	finishObs()
}

// startObs assembles the run's observability session from the shared
// flags: a recorder when a breakdown was requested (nil otherwise, which
// disables all recording) and a finish closure that writes profiles and
// prints the snapshot.
func startObs(stats bool, trace, cpuprofile, memprofile, pprofAddr string) (*xhybrid.Stats, func()) {
	format := ""
	if stats {
		format = "text"
	}
	switch trace {
	case "":
	case "text", "json":
		format = trace
	default:
		die(fmt.Errorf("unknown -trace format %q (want text or json)", trace))
	}
	var rec *xhybrid.Stats
	if format != "" {
		rec = xhybrid.NewStats()
	}
	stopProf, err := obs.StartProfiles(cpuprofile, memprofile, pprofAddr)
	if err != nil {
		die(err)
	}
	// Registered with onExit so fatal paths (die, verify's FAIL exit) still
	// stop the CPU profile and write the heap profile; an orderly main
	// calls the same closure, which runs at most once either way.
	return rec, onExit(func() {
		if err := stopProf(); err != nil {
			die(err)
		}
		if rec == nil {
			return
		}
		snap := rec.Snapshot()
		var werr error
		if format == "json" {
			werr = snap.WriteJSON(os.Stdout)
		} else {
			werr = snap.WriteText(os.Stdout)
		}
		if werr != nil {
			die(werr)
		}
	})
}

// reportMD prints a markdown report of the analysis and plan.
func reportMD(x *xhybrid.XLocations, opt xhybrid.Options) {
	// Normalized first, so the header prints the canonical strategy name
	// and the engine's m/q defaults rather than the raw flag spelling.
	opt, err := opt.Normalized()
	if err != nil {
		die(err)
	}
	a := xhybrid.Analyze(x)
	plan, err := xhybrid.Partition(x, opt)
	if err != nil {
		die(err)
	}
	fmt.Printf("# Hybrid X-handling report\n\n")
	fmt.Printf("## Design\n\n")
	fmt.Printf("| Property | Value |\n|---|---|\n")
	fmt.Printf("| Scan geometry | %d chains x %d cells |\n", x.Chains(), x.ChainLen())
	fmt.Printf("| Test patterns | %d |\n", x.Patterns())
	fmt.Printf("| X values | %d (%.4f%%) |\n", a.TotalX, 100*x.Density())
	fmt.Printf("| X-capturing cells | %d of %d |\n", a.XCells, x.Cells())
	fmt.Printf("| Largest equal-count group | %d cells x %d X's (correlation %.3f) |\n",
		a.LargestGroupSize, a.LargestGroupCount, a.LargestGroupCorrelation)
	fmt.Printf("| 90%% of X's in | %.2f%% of cells |\n", 100*a.CellFractionFor90PctX)
	fmt.Printf("| Spatial adjacency | %.1f%% of X's |\n\n", 100*a.IntraAdjacentFraction)
	fmt.Printf("## Partitioning (%s strategy, m=%d q=%d)\n\n", opt.Strategy, opt.MISRSize, opt.Q)
	fmt.Printf("| Round | Split cell | Cost before | Cost after | Verdict |\n|---|---|---|---|---|\n")
	for _, r := range plan.Rounds {
		v := "accepted"
		if !r.Accepted {
			v = "rejected"
		}
		fmt.Printf("| %d | %d | %d | %d | %s |\n", r.Round, r.SplitCell, r.CostBefore, r.CostAfter, v)
	}
	fmt.Printf("\n| Partition | Patterns | Masked cells | Masked X |\n|---|---|---|---|\n")
	for i, p := range plan.Partitions {
		fmt.Printf("| %d | %d | %d | %d |\n", i+1, len(p.Patterns), len(p.MaskedCells), p.MaskedX)
	}
	fmt.Printf("\n## Control data\n\n")
	fmt.Printf("| Scheme | Bits | vs proposed |\n|---|---|---|\n")
	fmt.Printf("| X-masking only [5] | %d | %.2fx |\n", plan.MaskOnlyBits, plan.ImprovementOverMaskOnly)
	fmt.Printf("| X-canceling only [12] | %d | %.2fx |\n", plan.CancelOnlyBits, plan.ImprovementOverCancelOnly)
	fmt.Printf("| Proposed hybrid | %d | 1.00x |\n", plan.TotalBits)
	fmt.Printf("\nMasked %d of %d X's; residual %d. Normalized test time %.3f (canceling-only %.3f).\n",
		plan.MaskedX, plan.TotalX, plan.ResidualX, plan.TestTimeHybrid, plan.TestTimeCancelOnly)
}

// verify runs the circuit flow on a generated 16-chain circuit: simulate
// it, program the hybrid, replay the responses through the hardware models
// and judge the replay against the plan's accounting.
func verify(cells, patterns, m, q int, seed int64, strategy string, workers int, rec *xhybrid.Stats) {
	if m > 16 {
		// The demo uses 16 chains; the compactor cannot spread them over a
		// wider MISR, so clamp to a 16-bit register.
		m, q = 16, 3
	}
	rep, err := xhybrid.RunFlowCtx(context.Background(), xhybrid.FlowSpec{
		Name: "verify", Cells: cells, Chains: 16, PIs: 8, XClusters: 4, XFanout: 5,
		CircuitSeed: seed + 1, StimSeed: uint64(seed) + 1, Patterns: patterns,
		MISRSize: m, Q: q, Strategy: strategy, Workers: workers,
	}, xhybrid.FlowRunConfig{Obs: rec})
	if err != nil {
		die(err)
	}
	r := rep.Replay
	fmt.Printf("circuit: %d gates, %d scan cells; %d patterns, %d X's\n",
		rep.Gates, cells, patterns, rep.TotalX)
	fmt.Printf("program: %d partitions (%s strategy), %d control bits planned, %d halts budgeted\n",
		rep.Partitions, rep.Spec.Strategy, rep.TotalBits, rep.PlannedHalts)
	fmt.Printf("replay: masked %d X's (%d observable destroyed), %d residual X's into the MISR\n",
		r.MaskedX, r.ObservableMasked, r.ResidualX)
	fmt.Printf("canceling: %d halts, %d X-free signatures (%d deficits), %d control bits, time %.3f\n",
		r.Halts, r.Signatures, r.Deficits, r.ControlBits, r.NormalizedTime)
	if rep.Preserved {
		fmt.Println("PASS: no observable capture was masked (fault coverage preserved)")
	} else {
		fmt.Println("FAIL: the replay contradicts the plan's accounting")
		// Through the cleanup path: a failing verify run must still flush
		// its profiles and stats.
		exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: xhybrid <analyze|partition|example|verify|report|convert> [flags]")
	exit(2)
}

func load(workloadName, inFile string, seed int64) (*xhybrid.XLocations, error) {
	switch {
	case workloadName != "" && inFile != "":
		return nil, fmt.Errorf("use either -workload or -in, not both")
	case workloadName != "":
		return xhybrid.Workload(workloadName, seed)
	case inFile != "":
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		switch {
		case strings.HasSuffix(inFile, ".txt"):
			return xhybrid.ReadXLocationsText(f)
		case strings.HasSuffix(inFile, ".xmb") || strings.HasSuffix(inFile, ".bin"):
			return xhybrid.ReadXLocationsBinary(f)
		}
		return xhybrid.ReadXLocations(f)
	}
	return nil, fmt.Errorf("need -workload <name> or -in <file>")
}

// convert re-serializes an X-location map between the three wire formats,
// picking each side's format from its file extension (.txt text, .xmb/.bin
// binary, anything else JSON). "-" writes to stdout as JSON.
func convert(workloadName, inFile string, seed int64, outFile string) {
	x, err := load(workloadName, inFile, seed)
	if err != nil {
		die(err)
	}
	var w *os.File
	if outFile == "-" {
		w = os.Stdout
	} else {
		w, err = os.Create(outFile)
		if err != nil {
			die(err)
		}
	}
	switch {
	case outFile == "-":
		err = x.WriteJSON(w)
	case strings.HasSuffix(outFile, ".txt"):
		err = x.WriteText(w)
	case strings.HasSuffix(outFile, ".xmb") || strings.HasSuffix(outFile, ".bin"):
		err = x.WriteBinary(w)
	default:
		err = x.WriteJSON(w)
	}
	if err == nil && w != os.Stdout {
		err = w.Close()
	}
	if err != nil {
		die(err)
	}
}

func analyze(x *xhybrid.XLocations) {
	a := xhybrid.Analyze(x)
	fmt.Printf("design: %d chains x %d cells, %d patterns\n", x.Chains(), x.ChainLen(), x.Patterns())
	fmt.Printf("total X values:        %d (density %.4f%%)\n", a.TotalX, 100*x.Density())
	fmt.Printf("X-capturing cells:     %d of %d\n", a.XCells, x.Cells())
	fmt.Printf("max X's in one cell:   %d\n", a.MaxCellCount)
	fmt.Printf("largest equal-count group: %d cells with %d X's each\n", a.LargestGroupSize, a.LargestGroupCount)
	fmt.Printf("  inter-correlation:   %.3f (fraction sharing one exact pattern set)\n", a.LargestGroupCorrelation)
	fmt.Printf("90%% of X's lie in %.2f%% of the scan cells\n", 100*a.CellFractionFor90PctX)
}

func partition(x *xhybrid.XLocations, opt xhybrid.Options, verbose bool) {
	plan, err := xhybrid.Partition(x, opt)
	if err != nil {
		die(err)
	}
	// The shared renderer keeps this output byte-identical to the serving
	// layer's format=text responses (see internal/server).
	if err := plan.WriteText(os.Stdout, x, verbose); err != nil {
		die(err)
	}
}
