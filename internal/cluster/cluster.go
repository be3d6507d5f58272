// Package cluster boots and drives a simulated network of workstations
// running SAM processes: it spawns one PVM task per rank, wires the rank
// table, runs the application to completion, injects failures, respawns
// failed ranks on behalf of the recovery coordinator, and aggregates the
// paper's statistics.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/pvm"
	"samft/internal/sam"
	"samft/internal/stats"
	"samft/internal/trace"
)

// Config describes one cluster run.
type Config struct {
	// N is the number of workstations (one SAM process each).
	N int
	// Policy selects the fault-tolerance mode.
	Policy ft.Policy
	// Degree is the replication degree (default 1).
	Degree int
	// ECData/ECParity, when both positive, erasure-code checkpoint copies
	// as k data + m parity shards instead of full replicas. Ignored when
	// the cluster is too small (k+m > N-1); private state stays fully
	// replicated at Degree either way.
	ECData   int
	ECParity int
	// EagerFree disables the §4.3 lazy-free protocol (ablation).
	EagerFree bool
	// CacheCapacity bounds each process's cached-object count (0 = off).
	CacheCapacity int
	// HostSlowdown, when non-nil, scales rank r's modeled compute costs by
	// HostSlowdown[r] (> 1 = slower workstation; see Endpoint.SetSlowdown).
	// A replacement process respawned after a failure lands on the same
	// modeled host and inherits the factor. Ranks beyond the slice run at
	// nominal speed.
	HostSlowdown []float64
	// NoSnapCache disables the version-keyed snapshot cache (ablation).
	NoSnapCache bool
	// Cost overrides the network cost model (default: the paper's AN2).
	Cost netsim.CostModel
	// AppFactory builds the per-rank application. It is called again with
	// the same rank when a failed process is restarted.
	AppFactory func(rank int) sam.App
	// Trace receives protocol event lines from every process (tests).
	Trace func(format string, args ...interface{})
	// OnRespawn, when non-nil, is invoked (outside the cluster lock) each
	// time a failed rank is actually restarted. The chaos layer uses it to
	// trigger kills during recovery.
	OnRespawn func(rank int, tid pvm.TID)
	// Chaos, when non-nil, attaches a seeded netsim fault-injection plan
	// (jitter, notification drop/duplication, scheduled kills) to the
	// simulated network.
	Chaos *netsim.FaultPlan
	// Tracer, when non-nil, records every layer's events into one
	// virtual-time track per process incarnation (see internal/trace).
	Tracer *trace.Tracer
}

// Cluster.mu sits at the top of the module's lock hierarchy: respawn
// deliberately holds it across spawning (so the new task body observes
// its own fresh tid), which nests every layer's lock under it, and the
// kill/error paths touch endpoint and task state under it. Nothing in
// the lower layers ever calls back into the cluster while holding its
// own lock, so the order below is acyclic.
//
//samlint:lockorder cluster.cluster < pvm.machine -- Spawn under the respawn lock
//samlint:lockorder cluster.cluster < pvm.task -- error collection reads task state
//samlint:lockorder cluster.cluster < netsim.network -- endpoint registration during spawn
//samlint:lockorder cluster.cluster < netsim.endpoint -- Kill/SetSlowdown on the rank's endpoint
//samlint:lockorder cluster.cluster < trace.tracer -- incarnation labels during spawn
//samlint:lockorder cluster.cluster < trace.recorder -- track creation during spawn

// Cluster is a running (or runnable) simulated cluster.
type Cluster struct {
	cfg     Config
	machine *pvm.Machine

	mu       sync.Mutex //samlint:lockclass cluster.cluster
	tids     []pvm.TID
	tasks    []*pvm.Task
	allTasks []*pvm.Task // every incarnation, for error collection
	procs    []*sam.Proc // current incarnation's process per rank
	stats    []*stats.Proc
	finished []bool
	appDone  []bool // rank's application has completed (any incarnation)
	halted   bool

	started  chan struct{}
	finishCh chan int
}

// New prepares a cluster; Start boots it.
func New(cfg Config) *Cluster {
	if cfg.N <= 0 {
		panic("cluster: N must be positive")
	}
	if cfg.AppFactory == nil {
		panic("cluster: AppFactory required")
	}
	if cfg.Chaos != nil && cfg.Chaos.NotifyTag == 0 {
		cfg.Chaos.NotifyTag = pvm.TagTaskExit
	}
	netCfg := netsim.Config{Cost: cfg.Cost, Chaos: cfg.Chaos, Trace: cfg.Tracer}
	c := &Cluster{
		cfg:      cfg,
		machine:  pvm.NewMachine(netCfg),
		tids:     make([]pvm.TID, cfg.N),
		tasks:    make([]*pvm.Task, cfg.N),
		procs:    make([]*sam.Proc, cfg.N),
		stats:    make([]*stats.Proc, cfg.N),
		finished: make([]bool, cfg.N),
		appDone:  make([]bool, cfg.N),
		started:  make(chan struct{}),
		finishCh: make(chan int, cfg.N*4),
	}
	for i := range c.stats {
		c.stats[i] = &stats.Proc{}
	}
	return c
}

// Start spawns every rank. The processes begin executing immediately.
func (c *Cluster) Start() {
	for rank := 0; rank < c.cfg.N; rank++ {
		task := c.spawn(rank, false)
		c.tids[rank] = task.TID()
		c.tasks[rank] = task
		c.allTasks = append(c.allTasks, task)
	}
	close(c.started)
}

// spawn launches one rank's process body (initial or recovering).
func (c *Cluster) spawn(rank int, recovering bool) *pvm.Task {
	name := fmt.Sprintf("rank%d", rank)
	if recovering {
		name += "-r"
	}
	var slowdown float64
	if rank < len(c.cfg.HostSlowdown) {
		slowdown = c.cfg.HostSlowdown[rank]
	}
	task := c.machine.Spawn(name, func(t *pvm.Task) {
		<-c.started
		c.mu.Lock()
		ranks := append([]pvm.TID(nil), c.tids...)
		st := c.stats[rank]
		c.mu.Unlock()
		cfg := sam.Config{
			Rank:          rank,
			N:             c.cfg.N,
			Ranks:         ranks,
			Policy:        c.cfg.Policy,
			Degree:        c.cfg.Degree,
			ECData:        c.cfg.ECData,
			ECParity:      c.cfg.ECParity,
			LazyFree:      !c.cfg.EagerFree,
			CacheCapacity: c.cfg.CacheCapacity,
			NoSnapCache:   c.cfg.NoSnapCache,
			Stats:         st,
			Recovering:    recovering,
			Respawn:       c.respawn,
			Trace:         c.cfg.Trace,
		}
		p := sam.NewProc(t, cfg)
		c.mu.Lock()
		if c.tids[rank] == t.TID() {
			c.procs[rank] = p // current incarnation (a racing respawn wins)
		}
		c.mu.Unlock()
		if p.Run(c.cfg.AppFactory(rank)) {
			c.mu.Lock()
			c.appDone[rank] = true
			c.mu.Unlock()
			if ctl := c.cfg.Tracer.Control(); ctl != nil {
				ctl.Emit(trace.Event{
					Kind: trace.ClusterFinished, Rank: rank,
					VirtUS: t.ClockUS(), Src: int64(t.TID()),
				})
			}
			c.finishCh <- rank
		}
	})
	if slowdown > 0 {
		task.Endpoint().SetSlowdown(slowdown)
	}
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Label(int64(task.TID()), name, rank)
	}
	return task
}

// respawn restarts a failed rank on behalf of the recovery coordinator
// and returns the replacement's tid (NoTID while halting). It is
// idempotent per failed incarnation: with overlapping failures, several
// processes may briefly believe they coordinate the same recovery, and
// only the first restart request for a given dead tid spawns a process —
// later ones are answered with the already-running replacement's tid.
func (c *Cluster) respawn(rank int, dead pvm.TID) pvm.TID {
	// The lock is held across the spawn so the new task body (which also
	// takes it to snapshot the rank table) observes its own fresh tid.
	c.mu.Lock()
	if c.halted {
		c.mu.Unlock()
		return pvm.NoTID
	}
	if c.tids[rank] != dead {
		tid := c.tids[rank]
		c.mu.Unlock()
		return tid // already restarted by a competing coordinator
	}
	task := c.spawn(rank, true)
	c.tids[rank] = task.TID()
	c.tasks[rank] = task
	c.allTasks = append(c.allTasks, task)
	c.stats[rank].Recoveries.Add(1)
	cb := c.cfg.OnRespawn
	tid := task.TID()
	c.mu.Unlock()
	if cb != nil {
		cb(rank, tid)
	}
	return tid
}

// Kill injects the failure of a rank's current incarnation, as if its
// workstation rebooted. It is a documented safe no-op — returning false —
// on an out-of-range rank, a rank whose application has already finished,
// a never-started or already-dead incarnation, and a halted cluster; it
// returns true only when a live process was actually killed. The chaos
// runner uses the signal to count effective injections.
func (c *Cluster) Kill(rank int) bool {
	c.mu.Lock()
	if rank < 0 || rank >= c.cfg.N || c.halted || c.appDone[rank] {
		c.mu.Unlock()
		return false
	}
	tid := c.tids[rank]
	c.mu.Unlock()
	if tid == pvm.NoTID {
		return false
	}
	// Read the victim's clock before the kill: Lookup refuses dead
	// endpoints afterwards.
	var clockUS float64
	if ep := c.machine.Network().Lookup(tid); ep != nil {
		clockUS = ep.ClockUS()
	}
	killed := c.machine.Kill(tid)
	if killed {
		if ctl := c.cfg.Tracer.Control(); ctl != nil {
			ctl.Emit(trace.Event{
				Kind: trace.ClusterKill, Rank: rank, VirtUS: clockUS,
				Aux: int64(tid),
			})
		}
	}
	return killed
}

// WaitFinished blocks until every rank's application has completed
// (surviving kills via recovery) without halting the machine, so callers
// can still inspect or quiesce the cluster. Returns an error on timeout.
func (c *Cluster) WaitFinished(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	probe := time.NewTicker(50 * time.Millisecond)
	defer probe.Stop()
	remaining := c.cfg.N
	for remaining > 0 {
		select {
		case rank := <-c.finishCh:
			c.mu.Lock()
			if !c.finished[rank] {
				c.finished[rank] = true
				remaining--
			}
			c.mu.Unlock()
		case <-probe.C:
			// Fail fast on an application error: a rank that died on a
			// real panic (injected kills end without error) never
			// finishes, and waiting out the full timeout hides the cause.
			if err := c.firstError(); err != nil {
				return fmt.Errorf("cluster: application failed: %w", err)
			}
		case <-deadline.C:
			return fmt.Errorf("cluster: timeout with %d ranks unfinished", remaining)
		}
	}
	return nil
}

// Wait blocks until every rank's application has completed, then halts
// the machine. It returns the first task error observed, if any.
func (c *Cluster) Wait(timeout time.Duration) error {
	err := c.WaitFinished(timeout)
	c.halt()
	if err != nil {
		return err
	}
	return c.firstError()
}

// Quiesce waits for the cluster's protocol traffic to drain: every live
// endpoint's mailbox empty and no process handling new events across a
// few consecutive samples. Returns false if the traffic does not settle
// within the timeout. Meaningful after WaitFinished (applications done,
// runtimes still serving).
func (c *Cluster) Quiesce(timeout time.Duration) bool {
	// Timer/ticker rather than time.Now polling: the deadline and sample
	// cadence are host-side timeouts and never leak into simulation state.
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	sample := time.NewTicker(2 * time.Millisecond)
	defer sample.Stop()
	var last struct {
		pending   int
		processed int64
	}
	stable := 0
	for {
		c.mu.Lock()
		pending := 0
		var processed int64
		for rank, t := range c.tasks {
			if t == nil {
				continue
			}
			pending += t.Endpoint().Pending()
			if p := c.procs[rank]; p != nil {
				processed += p.ProcessedCount()
			}
		}
		c.mu.Unlock()
		if pending == 0 && pending == last.pending && processed == last.processed {
			stable++
			if stable >= 3 {
				return true
			}
		} else {
			stable = 0
		}
		last.pending, last.processed = pending, processed
		select {
		case <-deadline.C:
			return false
		case <-sample.C:
		}
	}
}

// InvariantSnapshots collects each rank's end-of-run state summary. Call
// only after Halt: snapshots read runtime-goroutine state, so each
// process's runtime must have exited (this method waits for that).
func (c *Cluster) InvariantSnapshots() []sam.InvariantSnapshot {
	c.mu.Lock()
	procs := append([]*sam.Proc(nil), c.procs...)
	c.mu.Unlock()
	snaps := make([]sam.InvariantSnapshot, 0, len(procs))
	for _, p := range procs {
		if p == nil {
			continue
		}
		<-p.Done()
		snaps = append(snaps, p.Invariants())
	}
	return snaps
}

// LiveInvariantSnapshots collects a mid-run state summary from each
// rank's current incarnation through its command queue, without halting
// the machine. Ranks whose process is dead (killed, mid-respawn) or not
// yet registered are skipped — callers asserting cluster-wide properties
// should require len(snaps) == N. The chaos harness uses this to check
// checkpoint coverage after each recovery round rather than only at the
// end of a run.
func (c *Cluster) LiveInvariantSnapshots() []sam.InvariantSnapshot {
	c.mu.Lock()
	procs := append([]*sam.Proc(nil), c.procs...)
	c.mu.Unlock()
	snaps := make([]sam.InvariantSnapshot, 0, len(procs))
	for _, p := range procs {
		if p == nil {
			continue
		}
		if s, ok := p.LiveInvariants(); ok {
			snaps = append(snaps, s)
		}
	}
	return snaps
}

// Err returns the first error any incarnation's task body reported.
func (c *Cluster) Err() error { return c.firstError() }

func (c *Cluster) halt() {
	c.mu.Lock()
	c.halted = true
	c.mu.Unlock()
	c.machine.Halt()
}

// Halt force-stops the cluster (for tests that do not run to completion).
func (c *Cluster) Halt() { c.halt() }

func (c *Cluster) firstError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.allTasks {
		select {
		case <-t.Done():
			if err := t.Err(); err != nil {
				return err
			}
		default:
			// Still serving (apps finished, runtime alive): no error.
		}
	}
	return nil
}

// Run executes the whole lifecycle: Start, Wait, report.
func (c *Cluster) Run(timeout time.Duration) (stats.Report, error) {
	c.Start()
	err := c.Wait(timeout)
	return c.Report(), err
}

// Report aggregates the paper-style statistics across ranks.
func (c *Cluster) Report() stats.Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := stats.Report{Procs: c.cfg.N, Elapsed: c.elapsedLocked()}
	for _, s := range c.stats {
		r.Total.Add(s.Snapshot())
	}
	return r
}

// ElapsedModeledSec returns the modeled wall time of the computation: the
// maximum virtual clock over the current incarnations.
func (c *Cluster) ElapsedModeledSec() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elapsedLocked()
}

func (c *Cluster) elapsedLocked() float64 {
	var maxUS float64
	for _, t := range c.tasks {
		if t == nil {
			continue
		}
		if us := t.Endpoint().ClockUS(); us > maxUS {
			maxUS = us
		}
	}
	return maxUS / 1e6
}

// ProcStats returns a rank's counters (shared across incarnations).
func (c *Cluster) ProcStats(rank int) *stats.Proc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats[rank]
}

// Machine exposes the PVM machine (tests use it for low-level poking).
func (c *Cluster) Machine() *pvm.Machine { return c.machine }
