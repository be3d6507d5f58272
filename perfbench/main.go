// Command perfbench is the repository's benchmark. It runs one workload
// of eight simulated processes at paper scale, checks every run's answer
// against the no-FT answer, and prints the metrics named in
// BENCHMARK.json: the end-to-end metrics with --trace 0, the per-layer
// metrics (from the same timed loop, a separate traced pass and per-layer
// microbenchmarks) with --trace 1. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload water-failure --seed 1 --seconds 10 --trace 0
//	go run . --smoke
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// metric is one reported number. d, when set, summarizes the runs the
// value was computed from, for the human-readable lines.
type metric struct {
	name, unit string
	value      float64
	d          *dist
}

type report struct {
	metrics []metric
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// panelStat is a bench's panelMedian or panelMean.
type panelStat func(kind runKind, f func(*outcome) float64) float64

// addRuns reports a per-run quantity of the passing timed runs of one
// kind by the given panel statistic, keeping the distribution over all
// those runs for the human-readable lines.
func (r *report) addRuns(b *bench, stat panelStat, name, unit string, kind runKind, f func(*outcome) float64) {
	d := summarize(b.timed(kind, f))
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: stat(kind, f), d: &d})
}

func main() {
	processStart := time.Now()
	// One P: the simulation's goroutines then interleave far more
	// repeatably, so modeled times move less between invocations, and no
	// run depends on the host's core count.
	runtime.GOMAXPROCS(1)
	testing.Init() // testing.Benchmark reads the test.* flags
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "dataset seed, passed to the application as Params.Seed")
	seconds := flag.Int("seconds", 10, "length of the timed loop in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, adding a traced pass and microbenchmarks")
	out := flag.String("out", "", "directory for the traced pass's span and trace files (none when empty)")
	smoke := flag.Bool("smoke", false, "run every workload briefly in both modes and print every metric")
	flag.Parse()

	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*workload)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	res, err := runWorkload(processStart, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(res)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runWorkload runs the set-up phases and the timed loop, then either
// reports the end-to-end metrics or, when perLayer is set, the per-layer
// metrics. It prints a human-readable account and returns the result
// line.
func runWorkload(processStart time.Time, w workload, seed uint64, d time.Duration, perLayer bool, outDir string) (string, error) {
	if err := resetPeakRSS(); err != nil {
		return "", err
	}
	if _, err := peakRSSMB(); err != nil {
		return "", err
	}
	b := &bench{w: w, seed: seed, stop: processStart.Add(lastStart)}
	b.setup()
	b.loop(d)
	b.checkAnswers()
	rep := &report{}
	if perLayer {
		if err := b.tracedPass(outDir, rep.add); err != nil {
			return "", err
		}
		b.layerCounters(rep)
		if err := layerMetrics(w.app, seed, rep.add); err != nil {
			return "", err
		}
	} else {
		b.endToEnd(rep)
	}
	attempted, failed := b.failures()
	if perLayer {
		rep.add("failed_frac", "fraction", float64(failed)/float64(attempted))
	}

	fmt.Printf("perfbench workload=%s seed=%d seconds=%v trace=%v %s GOMAXPROCS=%d\n",
		w.name, seed, d.Seconds(), perLayer, runtime.Version(), runtime.GOMAXPROCS(0))
	for _, k := range kinds {
		fmt.Printf("  timed %-6s runs passed: %d\n", k, len(b.passing(k)))
	}
	for i, o := range b.results {
		if o.failed() {
			fmt.Printf("  FAILED run %d (%s): %s\n", i, o.kind, o.why)
		}
	}
	fmt.Printf("  set-up phases: %.4g host s, %.4g s at the reference host speed\n", b.setupWallS, b.setupS)
	fmt.Printf("  runs attempted %d, failed %d; datasets checked against their no-FT answer: %d of %d\n",
		attempted, failed, len(b.refs), w.panel)
	metrics := map[string]any{}
	for _, m := range rep.metrics {
		line := fmt.Sprintf("  %-36s %14.6g %s", m.name, m.value, m.unit)
		if m.d != nil {
			line += fmt.Sprintf("  (all %d runs: p50 %.6g", m.d.n, m.d.p50)
			if m.d.tailPct > 0 {
				line += fmt.Sprintf(", p%d %.6g", m.d.tailPct, m.d.tail)
			}
			line += ")"
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Printf("  %-36s not measured (no passing run of the kind it needs)\n", m.name)
			continue
		}
		fmt.Println(line)
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(b.refs) > 0 && b.wrong == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	return string(line), err
}

// endToEnd adds the end-to-end metrics. Per-run quantities are panel
// medians over the timed runs that passed, except recovery_s, a panel
// mean: a killed run's recovery falls into a few modes (on Barnes-Hut
// about 156 or 187 ms), and there its median moved two to three times as
// much as its mean between invocations.
func (b *bench) endToEnd(rep *report) {
	modeled := func(o *outcome) float64 { return o.modeledS }
	rep.addRuns(b, b.panelMedian, "ft_modeled_s", "s", kindFT, modeled)
	rep.addRuns(b, b.panelMedian, "base_modeled_s", "s", kindBase, modeled)
	rep.addRuns(b, b.panelMedian, "killed_modeled_s", "s", kindKilled, modeled)
	rep.addRuns(b, b.panelMean, "recovery_s", "s", kindKilled, func(o *outcome) float64 { return o.recoveryS() })
	setup := summarize(b.setupS)
	rep.metrics = append(rep.metrics, metric{name: "setup_s", unit: "s", value: setup.p50, d: &setup})
	rep.addRuns(b, b.panelMedian, "peak_rss_mb", "MB", kindFT, func(o *outcome) float64 { return o.peakRSSMB })
}

// layerCounters adds the per-layer metrics read from the timed runs'
// counters, by the panel statistic over the passing runs of the kind
// named.
func (b *bench) layerCounters(rep *report) {
	rs := b.panelMedian
	rep.add("netsim.msgs_per_run", "count", rs(kindFT, func(o *outcome) float64 { return float64(o.msgs) }))
	rep.add("netsim.bytes_per_run", "B", rs(kindFT, func(o *outcome) float64 { return float64(o.bytes) }))
	rep.add("netsim.base_msgs_per_run", "count", rs(kindBase, func(o *outcome) float64 { return float64(o.msgs) }))
	rep.add("netsim.base_bytes_per_run", "B", rs(kindBase, func(o *outcome) float64 { return float64(o.bytes) }))

	rep.add("sam.ckpts_per_proc_s", "1/s", rs(kindFT, func(o *outcome) float64 { return o.report.CheckpointsPerProcPerSec() }))
	rep.add("sam.sends_ckpt_pct", "%", rs(kindFT, func(o *outcome) float64 { return o.report.PctSendsCausingCheckpoint() }))
	rep.add("sam.replica_bytes_per_run", "B", rs(kindFT, func(o *outcome) float64 { return float64(o.report.Total.ReplicaBytes) }))
	rep.add("sam.priv_bytes_per_run", "B", rs(kindFT, func(o *outcome) float64 { return float64(o.report.Total.PrivBytes) }))
	rep.add("sam.miss_pct", "%", rs(kindFT, func(o *outcome) float64 { return o.report.MissRatePct() }))
	rep.add("sam.base_miss_pct", "%", rs(kindBase, func(o *outcome) float64 { return o.report.MissRatePct() }))
	rep.add("sam.object_sends_per_run", "count", rs(kindFT, func(o *outcome) float64 { return float64(o.report.Total.ObjectSends) }))
	rep.add("sam.snapcache_hit_pct", "%", rs(kindFT, func(o *outcome) float64 { return o.report.SnapCacheHitPct() }))

	modeled := func(o *outcome) float64 { return o.modeledS }
	rep.add("ft.overhead_pct", "%", 100*(rs(kindFT, modeled)/rs(kindBase, modeled)-1))
	rep.add("ft.force_msgs_per_proc_s", "1/s", rs(kindFT, func(o *outcome) float64 { return o.report.ForceCkptMsgsPerProcPerSec() }))
	rep.add("ft.forced_ckpts_per_proc_s", "1/s", rs(kindFT, func(o *outcome) float64 { return o.report.ForcedCkptsPerProcPerSec() }))

	rep.add("ckptstore.repair_objects_per_kill", "count", rs(kindKilled, func(o *outcome) float64 { return float64(o.report.Total.RepairObjects) }))
	rep.add("ckptstore.repair_bytes_per_kill", "B", rs(kindKilled, func(o *outcome) float64 { return float64(o.report.Total.RepairBytes) }))
	rep.add("cluster.detect_us", "us", rs(kindKilled, func(o *outcome) float64 { return o.detectWallUS() }))
	rep.add("cluster.resume_us", "us", rs(kindKilled, func(o *outcome) float64 { return o.resumeUS - o.killUS }))

	// Simulator speed. Host wall time of the same binary moves by up to a
	// quarter between invocations on a shared host, more than any bound an
	// end-to-end metric may have, so these are reported here, ungated.
	passed := 0
	for i := b.timedFrom; i < b.timedTo; i++ {
		if !b.results[i].failed() {
			passed++
		}
	}
	rep.add("runs_per_s", "1/s", float64(passed)/b.loopWallS)
	rep.add("run_wall_s", "s", rs(kindFT, func(o *outcome) float64 { return o.wallS }))

	var stepWall, steps float64
	for i := b.timedFrom; i < b.timedTo; i++ {
		stepWall += float64(b.results[i].stepWallNS)
		steps += float64(b.results[i].steps)
	}
	rep.add("apps.step_wall_us", "us", stepWall/steps/1e3)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.add("go.alloc_mb_per_run", "MB", b.allocMB)
	rep.add("go.gc_cpu_frac", "fraction", ms.GCCPUFraction)
}

// resetPeakRSS restarts the kernel's count of this process's peak
// resident set size, so the next peakRSSMB covers only what follows.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// runSmoke runs every workload for one second in both modes, with short
// microbenchmarks, and prints every metric.
func runSmoke() error {
	if err := flag.Set("test.benchtime", "50ms"); err != nil {
		return err
	}
	for _, w := range workloads {
		for _, perLayer := range []bool{false, true} {
			line, err := runWorkload(time.Now(), w, 1, time.Second, perLayer, "")
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			fmt.Println(line)
		}
	}
	return nil
}
