package main

// The traced pass: one run of each of the workload's run kinds with the
// program's virtual-time tracer on and the benchmark's own spans
// recorded, separate from the timed runs. It yields the per-layer
// numbers that need event timelines (checkpoint transactions, fetches,
// recovery phases) and the tracing overhead.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"samft/internal/trace"
)

// traceCapacity is the per-track event ring size of a traced run, large
// enough that a paper-scale run drops no events.
const traceCapacity = 1 << 16

// recDoneSlackUS is how far the end of the replacement's first
// post-restore Step, read by the benchmark's wrapper, may lie from the
// sam.rec-done event the program emits just after that Step returns.
// The two clock reads race only with message receipts, which can raise
// the process clock in between.
const recDoneSlackUS = 1000

// tracedPass runs the traced runs, adds their metrics, and writes the
// spans and the program's traces to outDir when it is not empty. A traced
// run that fails, including a killed run whose recovery measurement
// disagrees with sam.rec-done, counts as a failed run.
func (b *bench) tracedPass(outDir string, add func(name, unit string, v float64)) error {
	spans := &spanLog{}
	var tracedWall, untracedWall float64
	var dropped uint64
	for _, kind := range kinds {
		if time.Now().After(b.stop) {
			break
		}
		tr := trace.New(traceCapacity)
		spans.begin(kind.String())
		o := b.execSpec(runSpec{kind: kind, tracer: tr, spans: spans}, 0)
		b.checkAnswer(o)
		if o.failed() {
			// Counted like any failed run; the metrics it would have
			// given are left out rather than taken from a rerun.
			continue
		}
		tracedWall += o.wallS
		untracedWall += b.datasetMedian(kind, 0, func(o *outcome) float64 { return o.wallS })
		for _, tk := range tr.Snapshot() {
			dropped += tk.Dropped
		}
		switch kind {
		case kindFT:
			add("sam.ckpt_tx_us", "us", medianOf(ckptTxUS(tr)))
			add("sam.fetch_us", "us", medianOf(fetchUS(tr)))
		case kindKilled:
			if err := recoveryMetrics(tr, o, add); err != nil {
				o.why = err.Error()
			}
		}
		if outDir != "" {
			if err := writeProgramTrace(tr, filepath.Join(outDir, fmt.Sprintf("program-%s-%s-seed%d.json", b.w.name, kind, b.seed))); err != nil {
				return err
			}
		}
	}
	add("trace.overhead_pct", "%", 100*(tracedWall/untracedWall-1))
	add("trace.dropped_events", "count", float64(dropped))
	if outDir != "" {
		return spans.writeChrome(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.seed)))
	}
	return nil
}

// recoveryMetrics decomposes the traced killed run's recovery with
// trace.AnalyzeRecovery and cross-checks the benchmark's own recovery
// measurement against the program's sam.rec-done event.
func recoveryMetrics(tr *trace.Tracer, o *outcome, add func(name, unit string, v float64)) error {
	killUS := math.NaN()
	for _, tk := range tr.Snapshot() {
		for _, e := range tk.Events {
			if e.Kind == trace.ClusterKill && math.IsNaN(killUS) {
				killUS = e.VirtUS
			}
		}
	}
	var inc *trace.IncarnationReport
	rep := trace.AnalyzeRecovery(tr)
	for i, r := range rep.Incarnations {
		if r.Rank == killRank && r.Complete {
			inc = &rep.Incarnations[i]
			break
		}
	}
	if math.IsNaN(killUS) || inc == nil {
		return fmt.Errorf("traced killed run: no cluster.kill event or no completed recovery of rank %d", killRank)
	}
	recDoneUS := inc.EndUS - killUS
	ownUS := o.resumeEndUS - o.killUS
	if math.Abs(recDoneUS-ownUS) > recDoneSlackUS {
		return fmt.Errorf("traced killed run: kill to end of first post-restore step %.1f us, but kill to sam.rec-done %.1f us", ownUS, recDoneUS)
	}
	add("sam.rec_done_us", "us", recDoneUS)
	for _, p := range inc.Phases {
		add("cluster.recovery_phase_us."+p.Name, "us", p.DurUS())
	}
	return nil
}

// ckptTxUS returns the modeled duration of every checkpoint transaction
// (sam.ckpt-begin to the sam.ckpt-commit of the same sequence number).
func ckptTxUS(tr *trace.Tracer) []float64 {
	var out []float64
	for _, tk := range tr.Snapshot() {
		begin := map[int64]float64{}
		for _, e := range tk.Events {
			switch e.Kind {
			case trace.SamCkptBegin:
				begin[e.Aux] = e.VirtUS
			case trace.SamCkptCommit:
				if t, ok := begin[e.Aux]; ok {
					out = append(out, e.VirtUS-t)
					delete(begin, e.Aux)
				}
			}
		}
	}
	return out
}

// fetchUS returns the modeled duration of every object fetch (sam.fetch
// to the sam.fetch-data of the same object on the same process).
func fetchUS(tr *trace.Tracer) []float64 {
	var out []float64
	for _, tk := range tr.Snapshot() {
		issued := map[uint64]float64{}
		for _, e := range tk.Events {
			switch e.Kind {
			case trace.SamFetch:
				issued[e.Name] = e.VirtUS
			case trace.SamFetchData:
				if t, ok := issued[e.Name]; ok {
					out = append(out, e.VirtUS-t)
					delete(issued, e.Name)
				}
			}
		}
	}
	return out
}

func writeProgramTrace(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(tr, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
