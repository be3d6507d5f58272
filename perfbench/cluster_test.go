package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"samft/internal/experiments"
	"samft/internal/ft"
)

// TestRunOnceMatchesExperiments guards the benchmark's own runOnce
// against drifting from experiments.Run: for each application, both
// return the same answer for the same spec, fault-free and killed.
func TestRunOnceMatchesExperiments(t *testing.T) {
	const seed = 7
	apps := map[appKind]experiments.AppKind{appGPS: experiments.GPS, appWater: experiments.Water, appBarnes: experiments.Barnes}
	for app, exp := range apps {
		for _, kind := range []runKind{kindBase, kindKilled} {
			got := runOnce(runSpec{app: app, kind: kind, seed: seed, timeout: runTimeout})
			if got.err != nil || !got.answered {
				t.Fatalf("%s %s: runOnce failed (answered %v): %v", app, kind, got.answered, got.err)
			}
			spec := experiments.Spec{App: exp, N: procs, Policy: ft.PolicyOff, Scale: experiments.Paper, Seed: seed}
			if kind == kindKilled {
				spec.Policy = ft.PolicySAM
				spec.Kills = []experiments.KillEvent{{Rank: killRank, Step: killStep}}
				if !got.killApplied || got.respawns == 0 || !got.resumed {
					t.Errorf("%s killed: kill applied %v, respawns %d, resumed %v", app, got.killApplied, got.respawns, got.resumed)
				}
			}
			want, err := experiments.Run(spec)
			if err != nil {
				t.Fatalf("%s %s: experiments.Run: %v", app, kind, err)
			}
			if math.Float64bits(got.answer) != math.Float64bits(want.Answer) {
				t.Errorf("%s %s: runOnce answer %v, experiments.Run answer %v", app, kind, got.answer, want.Answer)
			}
			if got.report.Procs != want.Report.Procs {
				t.Errorf("%s %s: runOnce ran %d procs, experiments.Run %d", app, kind, got.report.Procs, want.Report.Procs)
			}
		}
	}
}

// TestStallCountsAsFailed runs a simulation under a deadline it cannot
// meet: cluster.Run must return once the deadline passes, and the run must
// count as a stalled failure.
func TestStallCountsAsFailed(t *testing.T) {
	const timeout = time.Millisecond
	o := outcome{runResult: runOnce(runSpec{app: appWater, kind: kindFT, seed: 1, timeout: timeout})}
	o.check(timeout)
	if !o.stalled || !o.failed() {
		t.Fatalf("stalled %v, failed %v (%q), err %v", o.stalled, o.failed(), o.why, o.err)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40..1
	}
	d := summarize(xs)
	if d.n != 40 || d.p50 != 20.5 {
		t.Fatalf("n=%d p50=%v, want 40 and 20.5", d.n, d.p50)
	}
	// p75 is the 30th smallest value and leaves exactly ten above it.
	if d.tailPct != 75 || d.tail != 30 {
		t.Fatalf("tail p%d=%v, want p75=30", d.tailPct, d.tail)
	}
	if d := summarize(xs[:10]); d.tailPct != 0 {
		t.Fatalf("ten samples gave a tail percentile p%d", d.tailPct)
	}
}

// TestMetricNamesMatchBenchmarkJSON runs the shortest workload in both
// modes and checks that the result line reports exactly the metrics
// BENCHMARK.json declares, with their units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload in both modes")
	}
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("water-failure")
	benchtime := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "20ms"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", benchtime)
	for _, mode := range []struct {
		perLayer bool
		want     []decl
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		line, err := runWorkload(time.Now(), w, 1, time.Second, mode.perLayer, "")
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Correct bool
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("%v in %s", err, line)
		}
		if !res.Correct {
			t.Errorf("perLayer=%v: result not correct", mode.perLayer)
		}
		var got, want []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, d := range mode.want {
			want = append(want, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("perLayer=%v: reported %v, declared %v", mode.perLayer, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("perLayer=%v: reported %q, declared %q", mode.perLayer, got[i], want[i])
			}
		}
	}
}

func TestPanelStatsWeightDatasetsEqually(t *testing.T) {
	b := &bench{}
	add := func(dataset int, v float64) {
		b.results = append(b.results, outcome{runResult: runResult{kind: kindFT, modeledS: v}, dataset: dataset})
	}
	modeled := func(o *outcome) float64 { return o.modeledS }
	// Dataset 0 got three runs, dataset 1 and 2 one each: weights 1/3 and 1.
	add(0, 0)
	add(0, 3)
	add(0, 3)
	add(1, 5)
	add(2, 11)
	b.timedTo = len(b.results)
	if got := b.panelMedian(kindFT, modeled); got != 5 {
		t.Fatalf("panel median %v, want 5 (the middle dataset)", got)
	}
	if got := b.panelMean(kindFT, modeled); got != 6 {
		t.Fatalf("panel mean %v, want 6 (the mean of the dataset means 2, 5 and 11)", got)
	}
	add(3, 7) // the cumulative weight reaches half exactly at 5: median between 5 and 7
	b.timedTo = len(b.results)
	if got := b.panelMedian(kindFT, modeled); got != 6 {
		t.Fatalf("panel median %v, want 6", got)
	}
	if got := b.panelMean(kindKilled, modeled); !math.IsNaN(got) {
		t.Fatalf("panel mean over no runs %v, want NaN", got)
	}
}
