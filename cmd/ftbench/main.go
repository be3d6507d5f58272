// Command ftbench regenerates the paper's evaluation: the speedup figures
// for GPS, Water, and Barnes-Hut with and without fault tolerance
// (Figures 3–5 and their statistics tables), the recovery-time result,
// and the ablations from DESIGN.md (naive checkpointing policy,
// replication degree, eager freeing, the consistent-global-checkpoint
// baseline, the snapshot-cache ablation, and the erasure-coding
// ablation).
//
// Independent cells of each sweep run concurrently (bounded by -par);
// output ordering is identical to a sequential sweep.
//
// Usage:
//
//	ftbench -exp all            # everything, small scale
//	ftbench -exp gps -scale paper -procs 1,2,4,8
//	ftbench -exp recovery
//	ftbench -exp water -par 1   # sequential baseline for timing
//	ftbench -chaos              # seeded multi-failure chaos sweep
//	ftbench -chaos -seed 42 -schedules 50
//	ftbench -exp recovery -ec 2,2
//	ftbench -exp ablation-ec
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"samft/internal/ckptstore"
	"samft/internal/experiments"
	"samft/internal/ft"
	"samft/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment: gps|water|barnes|recovery|chaos|ablation-naive|ablation-degree|ablation-force|ablation-snapcache|ablation-ec|baseline-consistent|all")
	scaleFlag := flag.String("scale", "small", "workload scale: small|paper")
	procsFlag := flag.String("procs", "1,2,4,8", "comma-separated processor counts")
	par := flag.Int("par", 0, "max concurrent cluster simulations (0 = GOMAXPROCS)")
	chaosFlag := flag.Bool("chaos", false, "shorthand for -exp chaos")
	seed := flag.Uint64("seed", 1, "chaos master seed (reproduces a sweep exactly)")
	schedules := flag.Int("schedules", 20, "chaos kill schedules per application")
	ecFlag := flag.String("ec", "", "erasure-code checkpoint copies as k,m Reed-Solomon shards for recovery/chaos/-json runs (default off)")
	traceDir := flag.String("trace", "", "dump virtual-time traces (Chrome JSON + recovery report) under this directory")
	jsonFlag := flag.Bool("json", false, "emit the benchmark trajectory file (BENCH_<date>.json) instead of figures")
	outFlag := flag.String("out", "", "output path for -json (default BENCH_<date>.json)")
	baselineFlag := flag.String("baseline", "", "committed BENCH_*.json to gate against: fail on >20% msgs/s regression")
	flag.Parse()
	if *chaosFlag {
		*exp = "chaos"
	}

	scale := experiments.Small
	if *scaleFlag == "paper" {
		scale = experiments.Paper
	}
	procs, err := parseProcs(*procsFlag)
	if err != nil {
		fatal(err)
	}
	ec, err := ckptstore.ParseEC(*ecFlag)
	if err != nil {
		fatal(err)
	}
	if *par > 0 {
		experiments.SetParallelism(*par)
	}
	if *jsonFlag {
		if err := benchJSON(*outFlag, *baselineFlag, *scaleFlag, scale, procs, ec); err != nil {
			fatal(err)
		}
		return
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}

	run("gps", func() error { return figure(experiments.GPS, scale, procs) })
	run("water", func() error { return figure(experiments.Water, scale, procs) })
	run("barnes", func() error { return figure(experiments.Barnes, scale, procs) })
	run("recovery", func() error { return recovery(scale, *traceDir, ec) })
	// Chaos is not part of -exp all: it runs 3 x -schedules full cluster
	// simulations and is a correctness sweep, not a figure regeneration.
	if *exp == "chaos" {
		if err := chaos(scale, *seed, *schedules, *traceDir, ec); err != nil {
			fatal(fmt.Errorf("chaos: %w", err))
		}
	}
	run("ablation-naive", func() error { return ablationNaive(scale, procs) })
	run("ablation-degree", func() error { return ablationDegree(scale) })
	run("ablation-force", func() error { return ablationForce(scale) })
	run("ablation-snapcache", func() error { return ablationSnapCache(scale) })
	run("ablation-ec", func() error { return ablationEC(scale) })
	run("baseline-consistent", func() error { return baselineConsistent(scale, procs) })
}

// storeLabel renders the -ec checkpoint-store configuration applied to
// the recovery, chaos, and -json runs for table output ("copies",
// "ec(2,1)").
func storeLabel(ec ckptstore.ECParams) string {
	if !ec.Enabled() {
		return "copies"
	}
	return fmt.Sprintf("ec(%d,%d)", ec.K, ec.M)
}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad proc count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftbench:", err)
	os.Exit(1)
}

// figure reproduces one of Figures 3–5.
func figure(app experiments.AppKind, scale experiments.Scale, procs []int) error {
	start := time.Now()
	fig, err := experiments.RunFigure(app, scale, procs)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	fig.Print(os.Stdout)
	fmt.Printf("(%d cells in %.2fs wall, parallelism=%d)\n\n",
		2*len(procs), wall, experiments.Parallelism())
	return nil
}

// recovery reproduces the "recovery takes on the order of a few seconds"
// result (E4): kill one of the processes mid-run for each application.
// RecoverySec is measured on the modeled clock, so these cells could
// share the machine; they run sequentially to keep output ordering tidy.
// With -trace, each killed run records its virtual-time timeline; the
// phase-decomposed recovery report is printed and the Chrome trace dumped.
func recovery(scale experiments.Scale, traceDir string, ec ckptstore.ECParams) error {
	fmt.Printf("== Recovery (kill one process mid-run, E4; store=%s) ==\n", storeLabel(ec))
	fmt.Printf("%-12s %8s %10s %14s %12s\n", "app", "procs", "killed", "recovery(s)", "answer-ok")
	type traced struct {
		app    experiments.AppKind
		tracer *trace.Tracer
	}
	var tracers []traced
	for _, app := range []experiments.AppKind{experiments.GPS, experiments.Water, experiments.Barnes} {
		base, err := experiments.Run(experiments.Spec{App: app, N: 4, Policy: ft.PolicyOff, Scale: scale})
		if err != nil {
			return err
		}
		spec := experiments.Spec{
			App: app, N: 4, Policy: ft.PolicySAM, Scale: scale,
			ECData: ec.K, ECParity: ec.M,
			Kills: []experiments.KillEvent{{Rank: 2, Step: 2}},
		}
		if traceDir != "" {
			spec.Tracer = trace.New(0)
			tracers = append(tracers, traced{app, spec.Tracer})
		}
		res, err := experiments.Run(spec)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %8d %10s %14.3f %12v\n", app, 4, "rank 2", res.RecoverySec, res.Answer == base.Answer)
	}
	fmt.Println()
	for _, t := range tracers {
		dir := fmt.Sprintf("%s/recovery-%s", traceDir, t.app)
		paths, err := trace.Dump(t.tracer, dir)
		if err != nil {
			return fmt.Errorf("trace dump %s: %w", dir, err)
		}
		fmt.Printf("-- %s recovery timeline (trace: %s) --\n", t.app, strings.Join(paths, ", "))
		trace.AnalyzeRecovery(t.tracer).Fprint(os.Stdout)
		fmt.Println()
	}
	return nil
}

// chaos runs the fault-injection sweep: for each application, N seeded
// randomized multi-failure schedules (simultaneous kills, coordinator
// takeover, re-kills during recovery) with message jitter and exit-
// notification drop/duplication, each verified bit-for-bit against the
// fault-free answer and checked for post-run state invariants.
func chaos(scale experiments.Scale, seed uint64, schedules int, traceDir string, ec ckptstore.ECParams) error {
	failed := 0
	for _, app := range []experiments.AppKind{experiments.GPS, experiments.Water, experiments.Barnes} {
		spec := experiments.ChaosSpec{
			App: app, Scale: scale, Seed: seed, Schedules: schedules,
			ECData: ec.K, ECParity: ec.M,
			Jitter: true, NotifyChaos: true, TraceDir: traceDir,
		}
		if ec.Enabled() {
			// The shards need N-1 >= k+m non-owner ranks to land on. (The
			// schedule generator itself caps distinct victims at the code's
			// m-loss budget, so MaxKills needs no forcing here.)
			spec.N = ec.Shards() + 1
		}
		res, err := experiments.RunChaos(spec)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		fmt.Println()
		failed += res.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d chaos schedules failed", failed)
	}
	return nil
}

// ablationNaive compares the paper's SAM-informed checkpoint policy with
// a conventional DSM's checkpoint-on-every-send (A1).
func ablationNaive(scale experiments.Scale, procs []int) error {
	fmt.Println("== Ablation A1: SAM-informed policy vs naive every-send checkpointing ==")
	fmt.Printf("%-12s %6s %14s %14s %16s %16s\n", "app", "procs", "T(sam) s", "T(naive) s", "ckpts/ps (sam)", "ckpts/ps (naive)")
	var specs []experiments.Spec
	for _, app := range []experiments.AppKind{experiments.GPS, experiments.Water, experiments.Barnes} {
		for _, n := range procs {
			if n < 2 {
				continue
			}
			specs = append(specs,
				experiments.Spec{App: app, N: n, Policy: ft.PolicySAM, Scale: scale},
				experiments.Spec{App: app, N: n, Policy: ft.PolicyNaive, Scale: scale})
		}
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return err
	}
	for i := 0; i < len(results); i += 2 {
		samRes, naive := results[i], results[i+1]
		fmt.Printf("%-12s %6d %14.4f %14.4f %16.3f %16.3f\n", samRes.Spec.App, samRes.Spec.N,
			samRes.ModeledSec, naive.ModeledSec,
			samRes.Report.CheckpointsPerProcPerSec(), naive.Report.CheckpointsPerProcPerSec())
	}
	fmt.Println()
	return nil
}

// ablationDegree varies the replication degree n of §4.2 (A2).
func ablationDegree(scale experiments.Scale) error {
	fmt.Println("== Ablation A2: replication degree (GPS, 4 procs) ==")
	fmt.Printf("%8s %14s %16s %14s\n", "degree", "T(FT) s", "replica bytes", "ckpts/proc/s")
	var specs []experiments.Spec
	for _, d := range []int{1, 2, 3} {
		specs = append(specs, experiments.Spec{App: experiments.GPS, N: 4, Policy: ft.PolicySAM, Degree: d, Scale: scale})
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Printf("%8d %14.4f %16d %14.3f\n", res.Spec.Degree, res.ModeledSec,
			res.Report.Total.ReplicaBytes, res.Report.CheckpointsPerProcPerSec())
	}
	fmt.Println()
	return nil
}

// ablationForce compares lazy freeing via the §4.3 vectors with the eager
// round-trip variant (A4).
func ablationForce(scale experiments.Scale) error {
	fmt.Println("== Ablation A4: lazy free (T/C/D vectors) vs eager round-trips (Water, 4 procs) ==")
	fmt.Printf("%8s %14s %18s %16s\n", "mode", "T(FT) s", "force-msgs/ps", "forced/proc/s")
	specs := []experiments.Spec{
		{App: experiments.Water, N: 4, Policy: ft.PolicySAM, Scale: scale},
		{App: experiments.Water, N: 4, Policy: ft.PolicySAM, Eager: true, Scale: scale},
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return err
	}
	for _, res := range results {
		mode := "lazy"
		if res.Spec.Eager {
			mode = "eager"
		}
		fmt.Printf("%8s %14.4f %18.4f %16.4f\n", mode, res.ModeledSec,
			res.Report.ForceCkptMsgsPerProcPerSec(), res.Report.ForcedCkptsPerProcPerSec())
	}
	fmt.Println()
	return nil
}

// ablationSnapCache compares the version-keyed snapshot cache against the
// re-pack-every-time baseline (A5): same answer, fewer packed bytes, and
// lower modeled checkpoint cost.
func ablationSnapCache(scale experiments.Scale) error {
	fmt.Println("== Ablation A5: snapshot cache vs re-pack on every checkpoint/send (Water, 4 procs) ==")
	fmt.Printf("%8s %14s %12s %12s %14s %12s\n", "mode", "T(FT) s", "hits", "hit%", "saved bytes", "answer")
	specs := []experiments.Spec{
		{App: experiments.Water, N: 4, Policy: ft.PolicySAM, Scale: scale},
		{App: experiments.Water, N: 4, Policy: ft.PolicySAM, NoSnapCache: true, Scale: scale},
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return err
	}
	for _, res := range results {
		mode := "cached"
		if res.Spec.NoSnapCache {
			mode = "repack"
		}
		fmt.Printf("%8s %14.4f %12d %12.2f %14d %12.4f\n", mode, res.ModeledSec,
			res.Report.Total.SnapCacheHits, res.Report.SnapCacheHitPct(),
			res.Report.Total.SnapCacheBytesSaved, res.Answer)
	}
	fmt.Println()
	return nil
}

// ablationEC sweeps the ckptstore configurations (A6): full replication
// plus Reed-Solomon (k,m) cells, all on GPS at N=5 with a mid-run kill.
// Columns map to the EXPERIMENTS.md ablation table: replica bytes are the
// memory/network overhead of the redundancy, recovery(s) the modeled
// restore time after the kill, survivable the number of simultaneous
// failures the configuration is guaranteed to survive
// (ckptstore.KillBudget), and the repair columns the proactive
// re-replication traffic that restores coverage after recovery.
func ablationEC(scale experiments.Scale) error {
	const n, degree = 5, 2
	fmt.Println("== Ablation A6: erasure coding vs full copies (GPS, 5 procs, 1 kill) ==")
	fmt.Printf("%-16s %10s %14s %12s %12s %14s %12s\n",
		"config", "survivable", "replica bytes", "recovery(s)", "repair objs", "repair bytes", "answer-ok")
	base, err := experiments.Run(experiments.Spec{App: experiments.GPS, N: n, Policy: ft.PolicyOff, Scale: scale})
	if err != nil {
		return err
	}
	cells := []ckptstore.ECParams{{}, {K: 2, M: 1}, {K: 2, M: 2}, {K: 3, M: 1}}
	var specs []experiments.Spec
	for _, c := range cells {
		specs = append(specs, experiments.Spec{
			App: experiments.GPS, N: n, Policy: ft.PolicySAM, Degree: degree, Scale: scale,
			ECData: c.K, ECParity: c.M,
			Kills: []experiments.KillEvent{{Rank: 2, Step: 2}},
		})
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return err
	}
	for i, res := range results {
		c := cells[i]
		fmt.Printf("%-16s %10d %14d %12.3f %12d %14d %12v\n",
			storeLabel(c), ckptstore.KillBudget(degree, n, c), res.Report.Total.ReplicaBytes, res.RecoverySec,
			res.Report.Total.RepairObjects, res.Report.Total.RepairBytes,
			res.Answer == base.Answer)
	}
	fmt.Println()
	return nil
}

// baselineConsistent compares against consistent global checkpointing to
// disk (A3, the Orca-style baseline of §6).
func baselineConsistent(scale experiments.Scale, procs []int) error {
	fmt.Println("== Baseline A3: paper's method vs consistent global checkpointing to disk ==")
	fmt.Printf("%-12s %6s %14s %18s\n", "app", "procs", "T(sam-ft) s", "T(consistent) s")
	// Water is excluded: its processes execute uneven step counts (dynamic
	// task stealing), which the lock-step barrier baseline cannot handle —
	// itself an illustration of why the paper avoids global coordination.
	var specs []experiments.Spec
	for _, app := range []experiments.AppKind{experiments.GPS, experiments.Barnes} {
		for _, n := range procs {
			if n < 2 {
				continue
			}
			specs = append(specs,
				experiments.Spec{App: app, N: n, Policy: ft.PolicySAM, Scale: scale},
				experiments.Spec{App: app, N: n, Policy: ft.PolicyOff, Consistent: true, Scale: scale})
		}
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return err
	}
	for i := 0; i < len(results); i += 2 {
		samRes, cons := results[i], results[i+1]
		fmt.Printf("%-12s %6d %14.4f %18.4f\n", samRes.Spec.App, samRes.Spec.N, samRes.ModeledSec, cons.ModeledSec)
	}
	fmt.Println()
	return nil
}
