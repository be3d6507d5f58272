// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus the ablations listed in DESIGN.md. It is shared by
// cmd/ftbench (human-readable output) and the repository's benchmark
// harness.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"samft/internal/apps/barnes"
	"samft/internal/apps/gps"
	"samft/internal/apps/water"
	"samft/internal/ckpt"
	"samft/internal/cluster"
	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/pvm"
	"samft/internal/sam"
	"samft/internal/stats"
	"samft/internal/trace"
)

// AppKind selects one of the paper's three applications.
type AppKind int

const (
	GPS AppKind = iota
	Water
	Barnes
)

func (k AppKind) String() string {
	switch k {
	case GPS:
		return "GPS"
	case Water:
		return "Water"
	case Barnes:
		return "Barnes-Hut"
	default:
		return "?"
	}
}

// Scale selects the workload size. Paper scale reproduces the published
// parameters (1000 individuals / 1728 molecules / 8000 bodies); Small is
// sized for tests and quick benches.
type Scale int

const (
	Small Scale = iota
	Paper
)

// KillEvent schedules one failure injection within a run.
type KillEvent struct {
	// Rank is the victim's logical rank.
	Rank int
	// Step, when > 0, fires the kill when the victim's application
	// reaches that step.
	Step int64
	// AtModeledSec, when > 0, fires the kill once the cluster's modeled
	// clock passes that instant. Checked at application step boundaries,
	// so the kill lands at the first step at-or-after the threshold — the
	// same at-the-next-activity semantics as netsim's clock triggers. A
	// threshold past the end of the run is a no-op.
	AtModeledSec float64
	// OnRecovery, instead, fires the kill the moment rank RecoveryOf's
	// replacement process is spawned — a failure injected mid-recovery.
	// Rank == RecoveryOf re-kills the recovering process itself before it
	// can finish restoring.
	OnRecovery bool
	RecoveryOf int
	// RecoveryCount, when > 0, narrows an OnRecovery trigger to RecoveryOf's
	// k-th respawn (1 = first). Zero fires on the first respawn observed.
	// Distinct counts let a schedule kill successive replacements of the
	// same rank deterministically (a flapping workstation).
	RecoveryCount int
}

// Spec describes one cluster run.
type Spec struct {
	App    AppKind
	N      int
	Policy ft.Policy
	Degree int
	Eager  bool // eager-free ablation (A4)
	// Consistent wraps the app with the global-checkpointing baseline (A3).
	Consistent bool
	Scale      Scale
	// Kills is the failure-injection schedule (empty = fault-free run).
	// Each event fires at most once.
	Kills []KillEvent
	// Chaos-network knobs: seeded per-message delay jitter (microseconds)
	// and exit-notification drop/duplication. Any nonzero setting attaches
	// a netsim fault plan seeded with ChaosSeed.
	ChaosSeed  uint64
	JitterUS   float64
	NotifyDrop bool
	NotifyDup  bool
	// CheckInvariants runs post-completion consistency checks (quiesce,
	// then per-rank state snapshots); violations land in the Result.
	CheckInvariants bool
	// Seed, when nonzero, overrides the application's default master seed
	// (per-cell seeds for sweeps that want independent datasets).
	Seed uint64
	// NoSnapCache disables the sam-layer snapshot cache (ablation).
	NoSnapCache bool
	// HostSlowdown scales rank r's modeled compute costs by HostSlowdown[r]
	// (> 1 = slower workstation); see cluster.Config.HostSlowdown.
	HostSlowdown []float64
	// ECData/ECParity, when both positive, erasure-code checkpoint copies
	// as k data + m parity shards (ablation; ignored when k+m > N-1).
	ECData   int
	ECParity int
	// Tracer, when non-nil, records the run's virtual-time event timeline
	// (see internal/trace); analyze it after Run returns.
	Tracer *trace.Tracer
}

// Result is one run's outcome.
type Result struct {
	Spec       Spec
	ModeledSec float64
	// WallSec is host wall-clock duration of the whole run — a
	// diagnostic throughput number, never part of the simulation result.
	WallSec float64
	Report  stats.Report
	// Answer is an application-level scalar used to cross-check that
	// different configurations compute the same thing (GPS best fitness,
	// Water final potential energy, Barnes-Hut final tree mass).
	Answer float64
	// RecoverySec is the modeled (virtual) time from failure injection to
	// the first completed recovery (0 when no failure was injected).
	// Modeled rather than wall-clock so the number is reproducible across
	// hosts and runs with identical seeds.
	RecoverySec float64
	// KillsApplied counts kill events that actually took down a live
	// process (an event can be a no-op, e.g. an OnRecovery trigger whose
	// subject never failed).
	KillsApplied int
	// InvariantViolations holds post-run consistency failures (only
	// collected when Spec.CheckInvariants is set).
	InvariantViolations []string
}

type hooked struct {
	sam.App
	hook func(rank int, step int64)
	rank int
}

func (h *hooked) Step(p *sam.Proc, step int64) bool {
	if h.hook != nil {
		h.hook(h.rank, step)
	}
	return h.App.Step(p, step)
}

type answerBox struct {
	mu  sync.Mutex
	v   float64
	set bool
}

func (a *answerBox) put(v float64) {
	a.mu.Lock()
	if !a.set {
		a.v = v
		a.set = true
	}
	a.mu.Unlock()
}

// get reads under the lock: the writer is an application callback on a
// cluster goroutine, not the goroutine that assembles the Result.
func (a *answerBox) get() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

// gpsParams / waterParams / barnesParams size the workloads.
func gpsParams(s Scale) gps.Params {
	p := gps.DefaultParams()
	if s == Small {
		p.Population = 96
		p.Generations = 5
		p.Samples = 24
		// Keep the modeled compute/communication ratio of the full-size
		// workload (evaluation dominates in GPS).
		p.EvalCostUS = 0.5
	}
	return p
}

func waterParams(s Scale) water.Params {
	p := water.DefaultParams()
	if s == Small {
		p.Molecules = 96
		p.Steps = 4
		p.TasksPerStep = 8
		p.PairCostUS = 0.5
	}
	return p
}

func barnesParams(s Scale) barnes.Params {
	p := barnes.DefaultParams()
	if s == Small {
		p.Bodies = 128
		p.Steps = 3
		p.BodyCostUS = 0.5
	}
	return p
}

// Run executes one spec to completion and collects the metrics.
func Run(spec Spec) (Result, error) {
	if spec.N <= 0 {
		spec.N = 1
	}
	ans := &answerBox{}
	var cl *cluster.Cluster
	killOnces := make([]sync.Once, len(spec.Kills))
	var killsApplied atomic.Int64
	// Kill/recovery instants are read off the cluster's modeled clock, so
	// RecoverySec is a property of the simulated schedule (reproducible
	// under a fixed seed), not of host scheduling.
	var killAtSec, recoveredAtSec float64
	var killSeen, recoverySeen bool
	var recMu sync.Mutex

	// fire executes kill event i exactly once.
	fire := func(i int) {
		killOnces[i].Do(func() {
			now := cl.ElapsedModeledSec()
			recMu.Lock()
			if !killSeen {
				killSeen = true
				killAtSec = now
			}
			recMu.Unlock()
			if cl.Kill(spec.Kills[i].Rank) {
				killsApplied.Add(1)
			}
		})
	}

	factory := func(rank int) sam.App {
		var app sam.App
		switch spec.App {
		case GPS:
			gp := gpsParams(spec.Scale)
			if spec.Seed != 0 {
				gp.Seed = spec.Seed
			}
			a := gps.New(rank, spec.N, gp)
			if rank == 0 {
				a.OnResult = func(best float64) {
					ans.put(best)
					now := cl.ElapsedModeledSec()
					recMu.Lock()
					if killSeen && !recoverySeen {
						recoverySeen = true
						recoveredAtSec = now
					}
					recMu.Unlock()
				}
			}
			app = a
		case Water:
			wp := waterParams(spec.Scale)
			if spec.Seed != 0 {
				wp.Seed = spec.Seed
			}
			a := water.New(rank, spec.N, wp)
			if rank == 0 {
				steps := waterParams(spec.Scale).Steps
				a.OnEnergy = func(step int64, e float64) {
					if step == steps {
						ans.put(e)
					}
				}
			}
			app = a
		case Barnes:
			bp := barnesParams(spec.Scale)
			if spec.Seed != 0 {
				bp.Seed = spec.Seed
			}
			a := barnes.New(rank, spec.N, bp)
			if rank == 0 {
				steps := barnesParams(spec.Scale).Steps
				a.OnStep = func(step int64, mass float64) {
					if step == steps {
						ans.put(mass)
					}
				}
			}
			app = a
		}
		if spec.Consistent {
			app = ckpt.NewConsistent(app, rank, spec.N, ckpt.DefaultConsistentConfig())
		}
		hook := func(r int, s int64) {
			for i := range spec.Kills {
				ev := spec.Kills[i]
				if ev.OnRecovery {
					continue
				}
				if ev.Step > 0 && r == ev.Rank && s >= ev.Step {
					fire(i)
				} else if ev.AtModeledSec > 0 && cl.ElapsedModeledSec() >= ev.AtModeledSec {
					fire(i)
				}
			}
		}
		return &hooked{App: app, hook: hook, rank: rank}
	}

	var chaos *netsim.FaultPlan
	if spec.JitterUS > 0 || spec.NotifyDrop || spec.NotifyDup {
		chaos = &netsim.FaultPlan{
			Seed:       spec.ChaosSeed,
			JitterUS:   spec.JitterUS,
			DropNotify: spec.NotifyDrop,
			DupNotify:  spec.NotifyDup,
		}
	}
	// respawnSeen counts each rank's respawns so RecoveryCount triggers can
	// target a specific replacement incarnation.
	respawnSeen := make([]int, spec.N)
	var respawnMu sync.Mutex
	cl = cluster.New(cluster.Config{
		N:            spec.N,
		Policy:       spec.Policy,
		Degree:       spec.Degree,
		EagerFree:    spec.Eager,
		NoSnapCache:  spec.NoSnapCache,
		ECData:       spec.ECData,
		ECParity:     spec.ECParity,
		HostSlowdown: spec.HostSlowdown,
		AppFactory:   factory,
		Chaos:        chaos,
		Tracer:       spec.Tracer,
		OnRespawn: func(rank int, _ pvm.TID) {
			respawnMu.Lock()
			nth := 0
			if rank >= 0 && rank < len(respawnSeen) {
				respawnSeen[rank]++
				nth = respawnSeen[rank]
			}
			respawnMu.Unlock()
			for i := range spec.Kills {
				ev := spec.Kills[i]
				if ev.OnRecovery && ev.RecoveryOf == rank &&
					(ev.RecoveryCount == 0 || ev.RecoveryCount == nth) {
					fire(i)
				}
			}
		},
	})
	start := time.Now() //samlint:allow wallclock -- WallSec is a host-side diagnostic
	var rep stats.Report
	var violations []string
	if spec.CheckInvariants {
		cl.Start()
		err := cl.WaitFinished(10 * time.Minute)
		if err == nil && !cl.Quiesce(10*time.Second) {
			violations = append(violations, "quiesce: protocol traffic did not settle")
		}
		cl.Halt()
		if err == nil {
			err = cl.Err()
		}
		if err != nil {
			return Result{}, err
		}
		rep = cl.Report()
		if len(violations) == 0 {
			degree := spec.Degree
			if degree <= 0 {
				degree = 1
			}
			violations = CheckInvariants(cl.InvariantSnapshots(), spec.N, degree, spec.ECData, spec.ECParity)
		}
	} else {
		var err error
		rep, err = cl.Run(10 * time.Minute)
		if err != nil {
			return Result{}, err
		}
	}
	wall := time.Since(start).Seconds() //samlint:allow wallclock -- WallSec is a host-side diagnostic
	res := Result{
		Spec:                spec,
		ModeledSec:          rep.Elapsed,
		WallSec:             wall,
		Report:              rep,
		Answer:              ans.get(),
		KillsApplied:        int(killsApplied.Load()),
		InvariantViolations: violations,
	}
	recMu.Lock()
	if killSeen && recoverySeen {
		res.RecoverySec = recoveredAtSec - killAtSec
	} else if killSeen {
		// No recovery marker observed (e.g. the app finished without
		// re-reporting): charge up to the end of the modeled run.
		res.RecoverySec = rep.Elapsed - killAtSec
	}
	recMu.Unlock()
	return res, nil
}

// FigureRow is one (procs, variant) cell of a speedup figure.
type FigureRow struct {
	Procs      int
	ModeledSec float64
	Speedup    float64
	Report     stats.Report
}

// Figure is the reproduction of one of the paper's speedup figures: the
// no-FT and FT curves plus the per-run statistics table.
type Figure struct {
	App    AppKind
	Scale  Scale
	NoFT   []FigureRow
	WithFT []FigureRow
}

// RunFigure reproduces Fig 3/4/5 for the given processor counts. The
// cells — every (policy, procs) pair — run concurrently via RunAll; the
// rows are assembled from the ordered results afterwards, so the figure
// is identical to a sequential sweep.
func RunFigure(app AppKind, scale Scale, procs []int) (Figure, error) {
	fig := Figure{App: app, Scale: scale}
	variants := []ft.Policy{ft.PolicyOff, ft.PolicySAM}
	specs := make([]Spec, 0, len(variants)*len(procs))
	for _, variant := range variants {
		for _, n := range procs {
			specs = append(specs, Spec{App: app, N: n, Policy: variant, Scale: scale})
		}
	}
	results, err := RunAll(specs)
	if err != nil {
		return fig, err
	}
	t1 := results[0].ModeledSec // first variant at the first proc count
	for k, res := range results {
		row := FigureRow{Procs: res.Spec.N, ModeledSec: res.ModeledSec, Report: res.Report}
		if res.ModeledSec > 0 {
			row.Speedup = t1 * float64(procs[0]) / res.ModeledSec
		}
		if k < len(procs) {
			fig.NoFT = append(fig.NoFT, row)
		} else {
			fig.WithFT = append(fig.WithFT, row)
		}
	}
	return fig, nil
}

// Print renders a figure in the paper's layout: speedup curves side by
// side and the statistics rows underneath, via the shared stats.Table
// formatter.
func (f Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s (scale=%v): speedup, no-FT vs FT ==\n", f.App, scaleName(f.Scale))
	curves := stats.NewTable("procs", "T(noFT) s", "speedup", "T(FT) s", "speedup", "ovhd %")
	for i := range f.NoFT {
		a, b := f.NoFT[i], f.WithFT[i]
		ovhd := 0.0
		if a.ModeledSec > 0 {
			ovhd = 100 * (b.ModeledSec - a.ModeledSec) / a.ModeledSec
		}
		curves.Row(a.Procs, a.ModeledSec, fmt.Sprintf("%.2f", a.Speedup),
			b.ModeledSec, fmt.Sprintf("%.2f", b.Speedup), fmt.Sprintf("%.2f", ovhd))
	}
	curves.Fprint(w)
	fmt.Fprintln(w, "-- FT statistics (paper table rows) --")
	tbl := stats.NewTable("procs", "ckpts/proc/s", "sends-ckpt%", "force-msgs/ps", "forced/proc/s", "miss%noFT", "miss%FT")
	for i := range f.WithFT {
		a, b := f.NoFT[i], f.WithFT[i]
		tbl.Row(b.Procs,
			fmt.Sprintf("%.3f", b.Report.CheckpointsPerProcPerSec()),
			fmt.Sprintf("%.2f", b.Report.PctSendsCausingCheckpoint()),
			b.Report.ForceCkptMsgsPerProcPerSec(),
			b.Report.ForcedCkptsPerProcPerSec(),
			fmt.Sprintf("%.2f", a.Report.MissRatePct()),
			fmt.Sprintf("%.2f", b.Report.MissRatePct()))
	}
	tbl.Fprint(w)
}

func scaleName(s Scale) string {
	if s == Paper {
		return "paper"
	}
	return "small"
}
