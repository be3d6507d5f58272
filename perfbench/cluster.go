package main

// One simulation run, driven through cluster.New with the applications'
// public constructors at paper scale. experiments.Run hides what the
// benchmark measures (the kill instant, the replacement incarnation and
// the per-endpoint fabric counters), so the benchmark runs simulations
// itself; cluster_test.go guards it against drifting from
// experiments.Run.

import (
	"math"
	"sync"
	"time"

	"samft/internal/apps/barnes"
	"samft/internal/apps/gps"
	"samft/internal/apps/water"
	"samft/internal/cluster"
	"samft/internal/ft"
	"samft/internal/pvm"
	"samft/internal/sam"
	"samft/internal/stats"
	"samft/internal/trace"
)

// appKind selects one of the paper's three applications.
type appKind int

const (
	appGPS appKind = iota
	appWater
	appBarnes
)

func (a appKind) String() string {
	return [...]string{"gps", "water", "barnes"}[a]
}

// runKind is one of the three runs a workload alternates.
type runKind int

const (
	kindBase   runKind = iota // fault tolerance off: the paper's T(noFT)
	kindFT                    // fault tolerance on, no failure: T(FT)
	kindKilled                // fault tolerance on, killRank killed at killStep
)

func (k runKind) String() string {
	return [...]string{"base", "ft", "killed"}[k]
}

// The simulated cluster and the failure schedule of a killed run: every
// run has procs processes; a killed run kills rank killRank when its
// application reaches step killStep (the schedule ftbench -json uses).
const (
	procs    = 8
	killRank = procs / 2
	killStep = 2
)

// runSpec describes one run.
type runSpec struct {
	app  appKind
	kind runKind
	// seed becomes the application's Params.Seed (the dataset).
	seed uint64
	// timeout bounds cluster.Run; a run still unfinished then is halted
	// and counted as stalled.
	timeout time.Duration
	// tracer, when non-nil, turns on the program's virtual-time tracer;
	// spans, when non-nil, records the benchmark's own spans.
	tracer *trace.Tracer
	spans  *spanLog
}

// runResult is what one run measured.
type runResult struct {
	kind runKind
	err  error
	// stalled is set when cluster.Run hit spec.timeout.
	stalled bool
	// answer is rank 0's result (GPS best fitness, Water final potential
	// energy, Barnes-Hut final tree mass); answered reports that it was
	// produced, and replayDiffers that a replayed step reported a
	// different value than the first report.
	answer        float64
	answered      bool
	replayDiffers bool

	modeledS float64 // modeled completion time (max process clock)
	wallS    float64 // host seconds spent in cluster.Run
	report   stats.Report
	// msgs/bytes sum Endpoint.Stats() sends over every incarnation.
	msgs, bytes int64
	// steps counts Init/Step calls into the application; stepWallNS is
	// their total host time, including time blocked inside sam.
	steps      int64
	stepWallNS int64

	// Failure bookkeeping (killed runs). Modeled instants are in
	// microseconds: the kill on the victim's clock, and the start and end
	// of the replacement's first Step after its state was restored on the
	// replacement's clock. The host instants of the kill and the first
	// respawn time failure detection.
	killApplied bool
	respawns    int
	killUS      float64
	resumeUS    float64
	resumeEndUS float64
	resumed     bool
	killWall    time.Time
	respawnWall time.Time
}

// recoveryS is the modeled time from the kill to the end of the
// replacement's first post-restore Step: the replay of the step the
// victim was in when it died, after which the program emits
// sam.rec-done.
func (r *runResult) recoveryS() float64 { return (r.resumeEndUS - r.killUS) / 1e6 }

// detectWallUS is the host time from the kill to the respawn of the
// victim by the recovery coordinator.
func (r *runResult) detectWallUS() float64 {
	return float64(r.respawnWall.Sub(r.killWall).Nanoseconds()) / 1e3
}

// newApp builds rank's application at paper scale (the apps'
// DefaultParams) on the given dataset seed. onAnswer receives rank 0's
// result.
func newApp(app appKind, rank int, seed uint64, onAnswer func(float64)) sam.App {
	switch app {
	case appGPS:
		p := gps.DefaultParams()
		p.Seed = seed
		a := gps.New(rank, procs, p)
		if rank == 0 {
			a.OnResult = onAnswer
		}
		return a
	case appWater:
		p := water.DefaultParams()
		p.Seed = seed
		a := water.New(rank, procs, p)
		if rank == 0 {
			a.OnEnergy = func(step int64, e float64) {
				if step == p.Steps {
					onAnswer(e)
				}
			}
		}
		return a
	default:
		p := barnes.DefaultParams()
		p.Seed = seed
		a := barnes.New(rank, procs, p)
		if rank == 0 {
			a.OnStep = func(step int64, mass float64) {
				if step == p.Steps {
					onAnswer(mass)
				}
			}
		}
		return a
	}
}

// run is the shared state of one simulation: the cluster, the result
// being filled in, and the latest incarnation of each rank.
type run struct {
	spec runSpec
	cl   *cluster.Cluster
	t0   time.Time

	mu        sync.Mutex
	res       runResult
	procs     [procs]*sam.Proc // latest incarnation seen per rank
	factories [procs]int       // AppFactory calls per rank
	killOnce  sync.Once
}

// timedApp wraps an application to time every Init/Step call into it,
// fire the kill of a killed run, and spot the replacement's first Step.
type timedApp struct {
	sam.App
	r           *run
	rank        int
	replacement bool // built for a respawned incarnation
	stepped     bool
}

func (a *timedApp) Init(p *sam.Proc) {
	a.r.see(a.rank, p)
	start, vstart := time.Now(), p.ClockUS()
	a.App.Init(p)
	a.r.stepDone(a.rank, "init", start, vstart, p.ClockUS())
}

func (a *timedApp) Step(p *sam.Proc, step int64) bool {
	r := a.r
	r.see(a.rank, p)
	if r.spec.kind == kindKilled && !a.replacement && a.rank == killRank && step >= killStep {
		r.kill(p)
	}
	first := a.replacement && !a.stepped
	a.stepped = true
	start, vstart := time.Now(), p.ClockUS()
	more := a.App.Step(p, step)
	vend := p.ClockUS()
	if first {
		r.mu.Lock()
		if !r.res.resumed {
			r.res.resumed = true
			r.res.resumeUS, r.res.resumeEndUS = vstart, vend
		}
		r.mu.Unlock()
	}
	r.stepDone(a.rank, "step", start, vstart, vend)
	return more
}

// see records p as rank's current incarnation.
func (r *run) see(rank int, p *sam.Proc) {
	r.mu.Lock()
	r.procs[rank] = p
	r.mu.Unlock()
}

func (r *run) stepDone(rank int, name string, start time.Time, vstart, vend float64) {
	end := time.Now()
	r.mu.Lock()
	r.res.steps++
	r.res.stepWallNS += end.Sub(start).Nanoseconds()
	r.mu.Unlock()
	r.spec.spans.add(span{Name: name, Rank: rank, Start: start.Sub(r.t0), End: end.Sub(r.t0), VirtStartUS: vstart, VirtEndUS: vend})
}

// kill injects the run's one failure from inside the victim's Step, on
// the victim's own clock.
func (r *run) kill(p *sam.Proc) {
	r.killOnce.Do(func() {
		now, us := time.Now(), p.ClockUS()
		applied := r.cl.Kill(killRank)
		r.mu.Lock()
		r.res.killApplied = applied
		r.res.killUS, r.res.killWall = us, now
		r.mu.Unlock()
		r.spec.spans.add(span{Name: "kill", Rank: killRank, Start: now.Sub(r.t0), End: now.Sub(r.t0), VirtStartUS: us, VirtEndUS: us})
	})
}

// onRespawn is cluster.Config.OnRespawn. The span carries the recovery
// coordinator's modeled clock at the respawn.
func (r *run) onRespawn(rank int, _ pvm.TID) {
	now := time.Now()
	var us float64
	r.mu.Lock()
	if c := r.procs[ft.CoordinatorRank(rank)]; c != nil {
		us = c.ClockUS()
	}
	r.res.respawns++
	if r.res.respawns == 1 {
		r.res.respawnWall = now
	}
	r.mu.Unlock()
	r.spec.spans.add(span{Name: "respawn", Rank: rank, Start: now.Sub(r.t0), End: now.Sub(r.t0), VirtStartUS: us, VirtEndUS: us})
}

func (r *run) factory(rank int) sam.App {
	r.mu.Lock()
	r.factories[rank]++
	replacement := r.factories[rank] > 1
	r.mu.Unlock()
	return &timedApp{App: newApp(r.spec.app, rank, r.spec.seed, r.answer), r: r, rank: rank, replacement: replacement}
}

// answer keeps rank 0's first result and flags a replay that disagrees.
func (r *run) answer(v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.res.answered {
		r.res.answer, r.res.answered = v, true
	} else if math.Float64bits(v) != math.Float64bits(r.res.answer) {
		r.res.replayDiffers = true
	}
}

// runOnce executes one simulation to completion, failure or timeout.
func runOnce(spec runSpec) runResult {
	r := &run{spec: spec, res: runResult{kind: spec.kind}}
	policy := ft.PolicySAM
	if spec.kind == kindBase {
		policy = ft.PolicyOff
	}
	r.cl = cluster.New(cluster.Config{
		N:          procs,
		Policy:     policy,
		AppFactory: r.factory,
		OnRespawn:  r.onRespawn,
		Tracer:     spec.tracer,
	})
	r.t0 = time.Now()
	rep, err := r.cl.Run(spec.timeout)
	wall := time.Since(r.t0)
	r.spec.spans.add(span{Name: "cluster.Run", Rank: -1, End: wall, VirtEndUS: rep.Elapsed * 1e6})

	r.mu.Lock()
	defer r.mu.Unlock()
	res := r.res
	res.err = err
	res.stalled = err != nil && wall >= spec.timeout
	res.modeledS = rep.Elapsed
	res.wallS = wall.Seconds()
	res.report = rep
	// The network hands out task ids in increasing order and the machine
	// keeps every task it spawned, dead ones included; the newest
	// incarnation is alive, so the highest live id bounds them all.
	m := r.cl.Machine()
	var last pvm.TID
	for _, tid := range m.Network().TIDs() {
		last = max(last, tid)
	}
	for tid := pvm.TID(1); tid <= last; tid++ {
		if t := m.Task(tid); t != nil {
			s := t.Endpoint().Stats()
			res.msgs += s.MsgsSent
			res.bytes += s.BytesSent
		}
	}
	return res
}
