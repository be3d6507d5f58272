package main

// The -json mode emits the benchmark trajectory file (BENCH_<date>.json):
// fabric microbenchmarks (ns/op, allocs/op, msgs/s) driven through
// testing.Benchmark over the shared internal/benchkit bodies, plus the
// application-level numbers the paper cares about — checkpoint overhead
// percentage and modeled recovery seconds per app x processor count.
// Trajectory files are committed at the repo root; CI regenerates the
// microbenchmarks and fails on a >20% msgs/s regression against the
// newest committed file (-baseline).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"samft/internal/benchkit"
	"samft/internal/ckptstore"
	"samft/internal/experiments"
	"samft/internal/ft"
	"samft/internal/netsim"
)

type microBench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MsgsPerSec  float64 `json:"msgs_per_sec,omitempty"`
}

type appCell struct {
	App   string `json:"app"`
	Procs int    `json:"procs"`
	Scale string `json:"scale"`
	// Modeled wall time without FT, with FT, and the overhead between
	// them — the paper's headline "few percent" claim.
	BaseModeledSec        float64 `json:"base_modeled_sec"`
	FTModeledSec          float64 `json:"ft_modeled_sec"`
	CheckpointOverheadPct float64 `json:"checkpoint_overhead_pct"`
	// Modeled seconds from a mid-run kill to the completed recovery, and
	// whether the killed run still produced the fault-free answer.
	RecoverySec float64 `json:"recovery_sec"`
	AnswerOK    bool    `json:"answer_ok"`
	// Proactive coverage-repair traffic in the killed run: checkpoint
	// copies the ckptstore ledger re-replicated after recovery, and the
	// modeled seconds that traffic costs on the paper's AN2 network
	// (per-object latency plus bytes over bandwidth).
	RepairObjects    int64   `json:"repair_objects"`
	RepairBytes      int64   `json:"repair_bytes"`
	RepairModeledSec float64 `json:"repair_modeled_sec"`
}

// repairModeledSec prices the repair traffic on the AN2 cost model.
func repairModeledSec(objects, bytes int64) float64 {
	cm := netsim.AN2()
	return (float64(objects)*cm.LatencyUS + float64(bytes)/cm.BandwidthMBps) / 1e6
}

type benchDoc struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// EC records the erasure code the app cells ran under (full copies
	// unless overridden by -ec).
	EC    string                `json:"ec,omitempty"`
	Micro map[string]microBench `json:"micro"`
	Apps  []appCell             `json:"apps"`
}

// benchBest runs f through testing.Benchmark `tries` times and keeps
// the fastest result (highest msgs/s when reported, lowest ns/op
// otherwise). Microbenchmark noise on a shared host is one-sided — a
// run can only be slowed down, never sped up — so best-of-N is the
// stable statistic to gate CI on.
func benchBest(f func(*testing.B), tries int) testing.BenchmarkResult {
	var best testing.BenchmarkResult
	for i := 0; i < tries; i++ {
		r := testing.Benchmark(f)
		if i == 0 || better(r, best) {
			best = r
		}
	}
	return best
}

func better(a, b testing.BenchmarkResult) bool {
	am, bm := a.Extra[benchkit.MsgsPerSec], b.Extra[benchkit.MsgsPerSec]
	if am > 0 || bm > 0 {
		return am > bm
	}
	return a.NsPerOp() < b.NsPerOp()
}

func toMicro(r testing.BenchmarkResult) microBench {
	return microBench{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		MsgsPerSec:  r.Extra[benchkit.MsgsPerSec],
	}
}

// benchJSON runs the trajectory suite, writes the JSON document to out
// (default BENCH_<date>.json in the current directory), and, when
// baseline names a previously committed trajectory file, fails on any
// throughput regression beyond regressionTolerance.
func benchJSON(out, baseline, scaleName string, scale experiments.Scale, procs []int, ec ckptstore.ECParams) error {
	doc := benchDoc{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Micro:      map[string]microBench{},
	}
	if ec.Enabled() {
		doc.EC = ec.String()
	}

	micro := []struct {
		name  string
		f     func(*testing.B)
		tries int
	}{
		{"send_recv", benchkit.SendRecv, 3},
		{"send_recv_exact", benchkit.SendRecvExact, 3},
		{"match_deep_queue_1024", benchkit.MatchDeepQueue(1024), 3},
		{"all_to_all_8", benchkit.AllToAll(8, 4), 3},
		{"all_to_all_64", benchkit.AllToAll(64, 4), 3},
		{"fan_in", benchkit.FanIn, 3},
	}
	for _, m := range micro {
		r := benchBest(m.f, m.tries)
		doc.Micro[m.name] = toMicro(r)
		fmt.Printf("bench %-24s %10.1f ns/op %4d allocs/op",
			m.name, doc.Micro[m.name].NsPerOp, doc.Micro[m.name].AllocsPerOp)
		if mps := doc.Micro[m.name].MsgsPerSec; mps > 0 {
			fmt.Printf(" %14.0f msgs/s", mps)
		}
		fmt.Println()
	}

	for _, app := range []experiments.AppKind{experiments.GPS, experiments.Water, experiments.Barnes} {
		for _, n := range procs {
			if n < 2 {
				continue // overhead and recovery need a peer to talk to
			}
			base, err := experiments.Run(experiments.Spec{App: app, N: n, Policy: ft.PolicyOff, Scale: scale})
			if err != nil {
				return err
			}
			ftRun, err := experiments.Run(experiments.Spec{
				App: app, N: n, Policy: ft.PolicySAM, Scale: scale,
				ECData: ec.K, ECParity: ec.M,
			})
			if err != nil {
				return err
			}
			killed, err := experiments.Run(experiments.Spec{
				App: app, N: n, Policy: ft.PolicySAM, Scale: scale,
				ECData: ec.K, ECParity: ec.M,
				Kills: []experiments.KillEvent{{Rank: n / 2, Step: 2}},
			})
			if err != nil {
				return err
			}
			cell := appCell{
				App: app.String(), Procs: n, Scale: scaleName,
				BaseModeledSec: base.ModeledSec,
				FTModeledSec:   ftRun.ModeledSec,
				RecoverySec:    killed.RecoverySec,
				AnswerOK:       killed.Answer == base.Answer && ftRun.Answer == base.Answer,
				RepairObjects:  killed.Report.Total.RepairObjects,
				RepairBytes:    killed.Report.Total.RepairBytes,
			}
			cell.RepairModeledSec = repairModeledSec(cell.RepairObjects, cell.RepairBytes)
			if base.ModeledSec > 0 {
				cell.CheckpointOverheadPct = 100 * (ftRun.ModeledSec - base.ModeledSec) / base.ModeledSec
			}
			doc.Apps = append(doc.Apps, cell)
			fmt.Printf("app %-12s n=%-3d overhead %6.2f%%  recovery %7.3fs  repair %d obj / %d B / %.3fs  answer-ok %v\n",
				cell.App, n, cell.CheckpointOverheadPct, cell.RecoverySec,
				cell.RepairObjects, cell.RepairBytes, cell.RepairModeledSec, cell.AnswerOK)
			if !cell.AnswerOK {
				return fmt.Errorf("%s n=%d: FT or killed run diverged from the fault-free answer", cell.App, n)
			}
		}
	}

	if out == "" {
		out = "BENCH_" + doc.Date + ".json"
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)

	if baseline != "" {
		return compareBaseline(doc, baseline)
	}
	return nil
}

// regressionTolerance is the fraction of baseline throughput a fresh
// run must reach: 0.80 fails CI on a >20% msgs/s regression.
const regressionTolerance = 0.80

func compareBaseline(doc benchDoc, path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var old benchDoc
	if err := json.Unmarshal(buf, &old); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	names := make([]string, 0, len(old.Micro))
	for name := range old.Micro {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		prev, cur := old.Micro[name], doc.Micro[name]
		if prev.MsgsPerSec <= 0 || cur.MsgsPerSec <= 0 {
			continue
		}
		ratio := cur.MsgsPerSec / prev.MsgsPerSec
		status := "ok"
		if ratio < regressionTolerance {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f msgs/s (%.0f%% of baseline)",
				name, prev.MsgsPerSec, cur.MsgsPerSec, 100*ratio))
		}
		fmt.Printf("baseline %-24s %14.0f -> %14.0f msgs/s (%5.1f%%) %s\n",
			name, prev.MsgsPerSec, cur.MsgsPerSec, 100*ratio, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("throughput regressed >%d%% vs %s:\n  %s",
			int(100*(1-regressionTolerance)), path, joinLines(failures))
	}
	return nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
