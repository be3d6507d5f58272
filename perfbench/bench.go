package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workload is one application with the size of its dataset panel.
// BENCHMARK.json records why each was chosen and which layers it
// stresses.
type workload struct {
	name string
	app  appKind
	// panel is how many datasets one invocation covers; each gets runs of
	// every kind.
	panel int
	// fixedPanel makes the panel the same for every benchmark seed, which
	// then only picks where the timed loop starts in it. GPS needs it: its
	// modeled cost varies about fourfold between datasets (evolved tree
	// sizes), so even the mean over 24 seed-drawn datasets moves by over
	// 10% from seed to seed. Barnes-Hut and Water vary by a few percent
	// between datasets, so the seed draws their panels.
	fixedPanel bool
}

var workloads = []workload{
	{"barnes-ckpt", appBarnes, 4, false},
	{"gps-compute", appGPS, 24, true},
	{"water-failure", appWater, 12, false},
}

// kinds are the runs every workload cycles through on each dataset. Every
// workload carries a killed run so that every end-to-end metric, recovery
// included, is measured on every workload; the fault-free metrics come
// from the base and ft runs alone.
var kinds = []runKind{kindBase, kindFT, kindKilled}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// datasetSeed is the application's Params.Seed for dataset i of the
// panel that benchmark seed selects.
func (w workload) datasetSeed(seed uint64, i int) uint64 {
	if w.fixedPanel {
		return 1 + uint64(i)
	}
	return seed<<8 + uint64(i)
}

const (
	// runTimeout is the benchmark's own stall deadline for one
	// cluster.Run. A paper-scale run takes about a second of host time
	// at most; a run still going after this is halted and counted as
	// failed.
	runTimeout = 10 * time.Second
	// lastStart bounds, from process start, when the timed loop and the
	// traced pass may start another run, so that a program whose runs
	// stall still ends, with its failures counted, well inside three
	// minutes. Healthy invocations finish long before it.
	lastStart = 150 * time.Second
	// setupReps is how many times the set-up phase is repeated; setup_s
	// is the median.
	setupReps = 5
)

// outcome is one run's result after checking.
type outcome struct {
	runResult
	dataset   int     // index into the panel
	peakRSSMB float64 // the process's peak RSS while the run executed
	why       string  // failure cause, "" when the run passed
}

// failed runs count in the result's failed and towards no metric.
func (o *outcome) failed() bool { return o.why != "" }

// bench is one benchmark invocation on one workload.
type bench struct {
	w    workload
	seed uint64
	// stop is the process start plus lastStart.
	stop time.Time

	// results holds every run, set-up and traced ones included;
	// results[timedFrom:timedTo] are the timed loop's runs.
	results            []outcome
	timedFrom, timedTo int
	refs               map[int]float64 // no-FT answer per dataset
	wrong              int             // completed runs with a wrong answer

	setupS     []float64 // set-up phases at the reference host speed
	setupWallS []float64 // the same phases as measured
	loopWallS  float64
	allocMB    float64 // heap megabytes allocated per timed run
}

// exec runs one simulation of the given dataset and records it.
func (b *bench) exec(kind runKind, dataset int) *outcome {
	return b.execSpec(runSpec{kind: kind}, dataset)
}

func (b *bench) execSpec(spec runSpec, dataset int) *outcome {
	spec.app, spec.seed, spec.timeout = b.w.app, b.w.datasetSeed(b.seed, dataset), runTimeout
	// Start every run from a collected heap whose free pages went back to
	// the kernel, so one run's garbage is neither charged to the next nor
	// counted in its peak RSS, and measure the run's own peak RSS. Both
	// /proc calls were checked to work before the first run.
	debug.FreeOSMemory()
	_ = resetPeakRSS()
	o := outcome{runResult: runOnce(spec), dataset: dataset}
	o.peakRSSMB, _ = peakRSSMB()
	o.check(spec.timeout)
	b.results = append(b.results, o)
	return &b.results[len(b.results)-1]
}

// check records why the run failed, if it did, on everything but its
// answer, which checkAnswers compares once the no-FT twins are known.
func (o *outcome) check(timeout time.Duration) {
	switch {
	case o.stalled:
		o.why = fmt.Sprintf("stalled past %v: %v", timeout, o.err)
	case o.err != nil:
		o.why = o.err.Error()
	case !o.answered:
		o.why = "no answer reported"
	case o.replayDiffers:
		o.why = "a replayed step reported a different answer"
	case o.kind == kindKilled && !o.killApplied:
		o.why = "kill was not applied"
	case o.kind == kindKilled && (o.respawns == 0 || !o.resumed):
		o.why = "killed rank was not respawned and resumed"
	}
}

// checkAnswers compares every completed run so far with its no-FT twin:
// the answer of the first completed no-FT run of the same dataset. No-FT
// runs are deterministic, so every run of every kind must reproduce it
// bit for bit. A run whose dataset has no completed no-FT run cannot be
// checked and counts as failed.
func (b *bench) checkAnswers() {
	b.refs = map[int]float64{}
	for _, o := range b.results {
		if _, ok := b.refs[o.dataset]; !ok && o.kind == kindBase && !o.failed() {
			b.refs[o.dataset] = o.answer
		}
	}
	for i := range b.results {
		b.checkAnswer(&b.results[i])
	}
}

// checkAnswer checks one run against the reference of its dataset.
func (b *bench) checkAnswer(o *outcome) {
	if o.replayDiffers {
		b.wrong++
	}
	if o.failed() {
		return
	}
	ref, ok := b.refs[o.dataset]
	switch {
	case !ok:
		o.why = "no completed no-FT run of its dataset to check the answer against"
	case math.Float64bits(o.answer) != math.Float64bits(ref):
		o.why = fmt.Sprintf("answer %v differs from the no-FT answer %v", o.answer, ref)
		b.wrong++
	}
}

// setup runs setupReps set-up phases on the panel's first dataset: a
// no-FT run for the reference answer, then one warm-up run of every
// other kind. Each phase's host seconds are recorded as measured and
// scaled to the reference host speed by the calibrations run just before
// and just after it.
func (b *bench) setup() {
	cal := calibrate()
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		for _, k := range kinds {
			b.exec(k, 0)
		}
		wall := time.Since(start).Seconds()
		next := calibrate()
		b.setupWallS = append(b.setupWallS, wall)
		b.setupS = append(b.setupS, wall*calibRefS/((cal+next)/2))
		cal = next
	}
}

// loop cycles through the panel's datasets, running each of the
// workload's kinds on one dataset before moving to the next, for the
// given duration and at least one pass over the panel, but starts no run
// after b.stop. A run that has started always completes. On a fixed panel
// the seed picks the first dataset, which decides the datasets a second,
// partial pass repeats.
func (b *bench) loop(d time.Duration) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.timedFrom = len(b.results)
	pass := b.w.panel * len(kinds)
	first := 0
	if b.w.fixedPanel {
		first = int(b.seed % uint64(b.w.panel))
	}
	start := time.Now()
	for i := 0; (i < pass || time.Since(start) < d) && time.Now().Before(b.stop); i++ {
		cycle := first + i/len(kinds)
		b.exec(kinds[i%len(kinds)], cycle%b.w.panel)
	}
	b.loopWallS = time.Since(start).Seconds()
	b.timedTo = len(b.results)
	runtime.ReadMemStats(&after)
	b.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(b.timedTo-b.timedFrom)
}

// passing returns the timed runs of the given kind that passed.
func (b *bench) passing(kind runKind) []*outcome {
	var out []*outcome
	for i := b.timedFrom; i < b.timedTo; i++ {
		if o := &b.results[i]; o.kind == kind && !o.failed() {
			out = append(out, o)
		}
	}
	return out
}

// timed returns f of every passing timed run of the given kind.
func (b *bench) timed(kind runKind, f func(*outcome) float64) []float64 {
	var out []float64
	for _, o := range b.passing(kind) {
		out = append(out, f(o))
	}
	return out
}

// sample is one run's value and its weight in a panel statistic.
type sample struct{ v, w float64 }

// panelRuns returns f of every passing timed run of the given kind, each
// weighted by one over the number of such runs on its dataset, so that
// every dataset of the panel counts equally however many runs it got,
// and the total weight.
func (b *bench) panelRuns(kind runKind, f func(*outcome) float64) ([]sample, float64) {
	runs := b.passing(kind)
	perDataset := map[int]int{}
	for _, o := range runs {
		perDataset[o.dataset]++
	}
	xs := make([]sample, len(runs))
	var total float64
	for i, o := range runs {
		xs[i] = sample{f(o), 1 / float64(perDataset[o.dataset])}
		total += xs[i].w
	}
	return xs, total
}

// panelMedian is the benchmark's statistic for a per-run quantity: the
// weighted median of panelRuns. NaN when no run passed.
func (b *bench) panelMedian(kind runKind, f func(*outcome) float64) float64 {
	xs, total := b.panelRuns(kind, f)
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].v < xs[j].v })
	// Walk to the sample where the cumulative weight reaches half; when it
	// lands on half exactly, the median lies between two samples.
	const eps = 1e-9
	var cum float64
	for i, x := range xs {
		cum += x.w
		if cum > total/2+eps {
			return x.v
		}
		if cum > total/2-eps {
			return (x.v + xs[i+1].v) / 2
		}
	}
	return xs[len(xs)-1].v
}

// panelMean is the weighted mean of panelRuns, for quantities whose runs
// fall into a few distinct modes: a median then jumps between modes as
// their shares shift slightly, while the mean moves with the shares.
// NaN when no run passed.
func (b *bench) panelMean(kind runKind, f func(*outcome) float64) float64 {
	xs, total := b.panelRuns(kind, f)
	var sum float64
	for _, x := range xs {
		sum += x.v * x.w
	}
	return sum / total
}

func (b *bench) failures() (attempted, failed int) {
	for _, o := range b.results {
		if o.failed() {
			failed++
		}
	}
	return len(b.results), failed
}

// dist summarizes a sample for the human-readable report: its size,
// median, and the highest nearest-rank percentile that leaves at least
// ten samples above it (tailPct 0 when the sample is too small).
type dist struct {
	n       int
	p50     float64
	tail    float64
	tailPct int
}

func summarize(xs []float64) dist {
	d := dist{n: len(xs), p50: math.NaN()}
	if len(xs) == 0 {
		return d
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d.p50 = median(s)
	for p := 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) * float64(len(s)) / 100))
		if rank >= 1 && len(s)-rank >= 10 {
			d.tailPct, d.tail = p, s[rank-1]
			break
		}
	}
	return d
}

// median of a sorted slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// datasetMedian is the median of f over the passing timed runs of one
// kind on one dataset.
func (b *bench) datasetMedian(kind runKind, dataset int, f func(*outcome) float64) float64 {
	var xs []float64
	for _, o := range b.passing(kind) {
		if o.dataset == dataset {
			xs = append(xs, f(o))
		}
	}
	return medianOf(xs)
}
