package experiments

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"samft/internal/ckptstore"
	"samft/internal/ft"
	"samft/internal/sam"
	"samft/internal/trace"
	"samft/internal/xrand"
)

// The chaos runner turns the paper's central robustness claim — degree-k
// replication tolerates k simultaneous workstation failures with no
// survivor rollback — into a tested property: N seeded randomized kill
// schedules per application, each verified byte-for-byte against the
// fault-free answer and checked for post-run state invariants.

// ChaosSpec configures one application's chaos sweep.
type ChaosSpec struct {
	App    AppKind
	N      int // cluster size (default 4)
	Degree int // replication degree (default 2)
	Scale  Scale
	// Schedules is the number of seeded kill schedules to run (default 20).
	// The first few are fixed archetypes covering the known-hard cases
	// (coordinator + survivor, re-kill during recovery, …); the rest are
	// randomized from Seed.
	Schedules int
	Seed      uint64
	// MaxKills bounds the failures per schedule (default 2 = Degree).
	MaxKills int
	// Jitter adds seeded per-message delay jitter; NotifyChaos drops and
	// duplicates exit notifications.
	Jitter      bool
	NotifyChaos bool
	// ECData/ECParity erasure-code checkpoint copies (k data + m parity
	// shards). A (k,m) code survives at most m simultaneous losses, so the
	// schedule generator caps each schedule's distinct victim ranks at
	// ECParity when the code is active — excess kills become re-kills of an
	// already-dead rank's replacement, which never exceed the loss budget.
	ECData   int
	ECParity int
	// TraceDir, when set, dumps every schedule's virtual-time trace under
	// it (one subdirectory per schedule). Failing schedules are dumped
	// even when TraceDir is empty, to DefaultTraceDir (or the
	// SAMFT_TRACE_DIR environment variable), so every red seed comes with
	// its timeline.
	TraceDir string
}

// DefaultTraceDir receives failing chaos schedules' auto-dumped traces
// when no explicit TraceDir is configured and SAMFT_TRACE_DIR is unset.
const DefaultTraceDir = "chaos-traces"

func (s *ChaosSpec) fill() {
	if s.N <= 0 {
		s.N = 4
	}
	if s.Degree <= 0 {
		s.Degree = 2
	}
	if s.Schedules <= 0 {
		s.Schedules = 20
	}
	if s.MaxKills <= 0 {
		s.MaxKills = 2
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// ChaosSchedule is one generated schedule plus its verdict.
type ChaosSchedule struct {
	Index  int
	Kills  []KillEvent
	Result Result
	// Problems lists everything wrong with this schedule's run: an answer
	// mismatch vs. the fault-free baseline, invariant violations, errors.
	// A failing schedule whose trace dump also failed records that here,
	// so a red seed either keeps its timeline or says why not.
	Problems []string
	// Warnings lists harness-side defects that do not fail the schedule
	// (e.g. a requested trace dump failing on a passing run).
	Warnings []string
	// TraceDir is where this schedule's trace was dumped ("" if it was
	// not), with trace.json (Perfetto loadable) and recovery.txt inside.
	TraceDir string
}

// ChaosResult is one application's sweep outcome.
type ChaosResult struct {
	Spec      ChaosSpec
	Baseline  float64 // fault-free answer
	Schedules []ChaosSchedule
	Failed    int // schedules with problems
}

// chaosSchedule generates the kill schedule for index i. Indices 0–3 are
// fixed archetypes hitting the hardened recovery paths; later indices are
// randomized from (seed, app, i) via the splittable PRNG, so any failing
// schedule is reproducible from its index alone. Every schedule passes
// through clampSchedule, so the archetypes (written for the default N=4)
// stay meaningful at smaller N and randomized schedules never exceed the
// configuration's survivable failure budget.
func chaosSchedule(spec ChaosSpec, i int) []KillEvent {
	switch i {
	case 0:
		// Two simultaneous kills including the coordinator (rank 0) and a
		// survivor that holds recovery state for it.
		return clampSchedule(spec, []KillEvent{{Rank: 0, Step: 2}, {Rank: 1, Step: 2}})
	case 1:
		// Re-kill the recovering process before it can finish restoring.
		return clampSchedule(spec, []KillEvent{
			{Rank: 2, Step: 2},
			{Rank: 2, OnRecovery: true, RecoveryOf: 2},
		})
	case 2:
		// Kill a survivor while it is contributing to another rank's
		// recovery (its kRecoverFin is lost).
		return clampSchedule(spec, []KillEvent{
			{Rank: 1, Step: 2},
			{Rank: 3, OnRecovery: true, RecoveryOf: 1},
		})
	case 3:
		// The takeover case: kill the coordinator, then kill the next
		// coordinator in line mid-recovery.
		return clampSchedule(spec, []KillEvent{
			{Rank: 0, Step: 1},
			{Rank: 1, OnRecovery: true, RecoveryOf: 0},
		})
	}
	rng := xrand.At(spec.Seed, int64(spec.App), int64(i))
	n := 1 + rng.Intn(spec.MaxKills)
	kills := make([]KillEvent, 0, n)
	// First kill is always step-triggered; later ones may ride the first
	// kills' recoveries. Steps stay in [1,3]: every app has at least three
	// steps at any scale, so the schedule lands inside live computation.
	kills = append(kills, KillEvent{Rank: rng.Intn(spec.N), Step: int64(1 + rng.Intn(3))})
	for k := 1; k < n; k++ {
		if rng.Intn(2) == 0 {
			prev := kills[rng.Intn(len(kills))]
			kills = append(kills, KillEvent{
				Rank:       rng.Intn(spec.N),
				OnRecovery: true,
				RecoveryOf: prev.Rank,
			})
		} else {
			kills = append(kills, KillEvent{Rank: rng.Intn(spec.N), Step: int64(1 + rng.Intn(3))})
		}
	}
	return clampSchedule(spec, kills)
}

// killBudget is the number of distinct ranks a schedule may take down
// before it leaves the guaranteed-survivable envelope (ckptstore.KillBudget).
func killBudget(spec ChaosSpec) int {
	return ckptstore.KillBudget(spec.Degree, spec.N, ckptstore.ECParams{K: spec.ECData, M: spec.ECParity})
}

// clampSchedule rewrites a generated schedule so every event is effective
// and the schedule stays within the configuration's survivable envelope:
//
//   - ranks are reduced mod N, so the fixed archetypes never address
//     out-of-range ranks whose Kill would be a silent no-op at N < 4;
//   - exact-duplicate events are dropped — the second Kill of a rank that
//     just died at the same trigger is a guaranteed no-op and would make
//     KillsApplied under-report the schedule's intent;
//   - the distinct victim ranks are capped at killBudget: an excess kill
//     is redirected into a re-kill of the first victim's replacement,
//     which keeps recovery pressure without manufacturing a state the
//     paper's guarantee never promised to survive (the EC false-failure
//     fix: randomized sweeps with MaxKills > ECParity used to schedule
//     more simultaneous losses than the code can decode).
func clampSchedule(spec ChaosSpec, kills []KillEvent) []KillEvent {
	budget := killBudget(spec)
	mod := func(r int) int { return ((r % spec.N) + spec.N) % spec.N }
	victims := make(map[int]bool)
	seen := make(map[KillEvent]bool)
	firstVictim := -1
	out := make([]KillEvent, 0, len(kills))
	for _, k := range kills {
		k.Rank = mod(k.Rank)
		if k.OnRecovery {
			k.RecoveryOf = mod(k.RecoveryOf)
		}
		if !victims[k.Rank] && len(victims) >= budget {
			k = KillEvent{Rank: firstVictim, OnRecovery: true, RecoveryOf: firstVictim}
		}
		if k.OnRecovery && !victims[k.RecoveryOf] {
			// A trigger riding a rank that is never killed would not fire;
			// ride the first victim's recovery instead.
			k.RecoveryOf = firstVictim
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		victims[k.Rank] = true
		if firstVictim < 0 {
			firstVictim = k.Rank
		}
		out = append(out, k)
	}
	return out
}

// RunChaos executes a fault-free baseline run and then every schedule,
// comparing answers bit-for-bit and collecting invariant violations. The
// schedules run concurrently under the RunAll worker bound.
func RunChaos(spec ChaosSpec) (ChaosResult, error) {
	spec.fill()
	base := Spec{
		App: spec.App, N: spec.N, Policy: ft.PolicySAM, Degree: spec.Degree, Scale: spec.Scale,
		ECData: spec.ECData, ECParity: spec.ECParity,
	}
	baseline, err := Run(base)
	if err != nil {
		return ChaosResult{}, fmt.Errorf("chaos baseline: %w", err)
	}

	specs := make([]Spec, spec.Schedules)
	schedules := make([][]KillEvent, spec.Schedules)
	tracers := make([]*trace.Tracer, spec.Schedules)
	for i := range specs {
		schedules[i] = chaosSchedule(spec, i)
		s := base
		s.Kills = schedules[i]
		s.CheckInvariants = true
		s.ChaosSeed = spec.Seed + uint64(i)
		if spec.Jitter {
			s.JitterUS = 40 // ~half the modeled one-way latency
		}
		s.NotifyDrop = spec.NotifyChaos
		s.NotifyDup = spec.NotifyChaos
		// Every schedule records its timeline so a failure can be dumped
		// post-hoc; the ring buffers bound the cost on long runs.
		tracers[i] = trace.New(0)
		s.Tracer = tracers[i]
		specs[i] = s
	}

	out := ChaosResult{Spec: spec, Baseline: baseline.Answer}
	results, err := RunAll(specs)
	if err != nil {
		return out, err
	}
	for i, res := range results {
		sched := ChaosSchedule{Index: i, Kills: schedules[i], Result: res}
		if math.Float64bits(res.Answer) != math.Float64bits(baseline.Answer) {
			sched.Problems = append(sched.Problems, fmt.Sprintf(
				"answer mismatch: got %v, fault-free run produced %v", res.Answer, baseline.Answer))
		}
		sched.Problems = append(sched.Problems, res.InvariantViolations...)
		if len(sched.Problems) > 0 {
			out.Failed++
		}
		if len(sched.Problems) > 0 || spec.TraceDir != "" {
			dir := filepath.Join(TraceRoot(spec.TraceDir), fmt.Sprintf("%s-seed%d-schedule%02d", spec.App, spec.Seed, i))
			if _, derr := trace.Dump(tracers[i], dir); derr != nil {
				// Never lose a red seed's timeline silently: a failing
				// schedule records the dump failure alongside its problems;
				// a passing one downgrades it to a warning (the simulation
				// itself was fine).
				msg := fmt.Sprintf("trace dump to %s failed: %v", dir, derr)
				if len(sched.Problems) > 0 {
					sched.Problems = append(sched.Problems, msg)
				} else {
					sched.Warnings = append(sched.Warnings, msg)
				}
			} else {
				sched.TraceDir = dir
			}
		}
		out.Schedules = append(out.Schedules, sched)
	}
	return out, nil
}

// TraceRoot resolves where auto-dumped traces land: the explicit
// directory when set, else SAMFT_TRACE_DIR, else DefaultTraceDir. The
// chaos sweep and the scenario campaign runner share this resolution so
// CI's failing-trace artifact upload covers both.
func TraceRoot(explicit string) string {
	if explicit != "" {
		return explicit
	}
	if d := os.Getenv("SAMFT_TRACE_DIR"); d != "" {
		return d
	}
	return DefaultTraceDir
}

// CheckInvariants validates the paper's end-state guarantees over a
// quiesced cluster's per-rank snapshots:
//
//   - exactly one created main copy per object name across the cluster;
//   - every non-freeable, checkpointed main copy is backed by at least
//     min(degree, n-1) up-to-date checkpoint copies on other ranks — or,
//     under erasure coding (ecK, ecM both positive and feasible for n),
//     ecK+ecM distinct up-to-date shards;
//   - the coverage-repair pass reported no unreparable objects
//     (InvariantSnapshot.RepairViolations);
//   - no provisional state survived: no inactive objects, pending copies,
//     staged private-state replicas, open transactions, or deferred
//     messages.
func CheckInvariants(snaps []sam.InvariantSnapshot, n, degree, ecK, ecM int) []string {
	var out []string
	type copyRec struct {
		rank, owner int
		seq         int64
		shard       int
	}
	// NewStore's feasibility rule: an infeasible code is silently dropped
	// and full replication applies.
	ec := ckptstore.ECFeasible(ckptstore.ECParams{K: ecK, M: ecM}, n)
	mains := make(map[uint64][]int)
	copies := make(map[uint64][]copyRec)
	for _, s := range snaps {
		for _, o := range s.Objects {
			if o.Main && o.Created {
				mains[o.Name] = append(mains[o.Name], s.Rank)
			}
			if o.CkptCopy {
				copies[o.Name] = append(copies[o.Name], copyRec{s.Rank, o.CopyOwner, o.CopySeq, o.Shard})
			}
			if o.Inactive {
				out = append(out, fmt.Sprintf("rank %d: object %d left inactive (uncommitted checkpoint data)", s.Rank, o.Name))
			}
			if o.PendingCopy {
				out = append(out, fmt.Sprintf("rank %d: object %d has a pending (unactivated) checkpoint copy", s.Rank, o.Name))
			}
		}
		if s.StagedPriv > 0 {
			out = append(out, fmt.Sprintf("rank %d: %d staged private-state replicas never activated", s.Rank, s.StagedPriv))
		}
		if s.OpenTx {
			out = append(out, fmt.Sprintf("rank %d: checkpoint transaction left open", s.Rank))
		}
		if s.DeferredMsgs > 0 {
			out = append(out, fmt.Sprintf("rank %d: %d messages left deferred behind a transaction", s.Rank, s.DeferredMsgs))
		}
		out = append(out, s.RepairViolations...)
	}
	for name, ranks := range mains {
		if len(ranks) > 1 {
			sort.Ints(ranks)
			out = append(out, fmt.Sprintf("object %d forked: main copies at ranks %v", name, ranks))
		}
	}
	want := degree
	if n-1 < want {
		want = n - 1
	}
	if ec {
		want = ecK + ecM
	}
	for _, s := range snaps {
		for _, o := range s.Objects {
			if !o.Main || !o.Created || o.Freeable || o.CkptSeq == 0 {
				continue
			}
			got := 0
			shardsSeen := make(map[int]bool)
			for _, c := range copies[o.Name] {
				if c.rank == s.Rank || c.owner != s.Rank || c.seq < o.CkptSeq {
					continue
				}
				if ec && c.shard > 0 {
					// Distinct shard indices only: two holders of the same
					// shard add no erasure redundancy.
					if shardsSeen[c.shard] {
						continue
					}
					shardsSeen[c.shard] = true
				}
				got++
			}
			if got < want {
				out = append(out, fmt.Sprintf(
					"rank %d: object %d checkpoint coverage %d < %d (seq %d)", s.Rank, o.Name, got, want, o.CkptSeq))
			}
		}
	}
	sort.Strings(out)
	return out
}

// Print renders a chaos sweep summary.
func (r ChaosResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s chaos: %d schedules, N=%d degree=%d seed=%d ==\n",
		r.Spec.App, len(r.Schedules), r.Spec.N, r.Spec.Degree, r.Spec.Seed)
	fmt.Fprintf(w, "fault-free answer: %v\n", r.Baseline)
	for _, s := range r.Schedules {
		status := "ok"
		if len(s.Problems) > 0 {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%4d %-4s kills=%d applied=%d %s\n",
			s.Index, status, len(s.Kills), s.Result.KillsApplied, formatKills(s.Kills))
		for _, p := range s.Problems {
			fmt.Fprintf(w, "       %s\n", p)
		}
		for _, m := range s.Warnings {
			fmt.Fprintf(w, "       warning: %s\n", m)
		}
		if s.TraceDir != "" {
			fmt.Fprintf(w, "       trace: %s\n", s.TraceDir)
		}
	}
	fmt.Fprintf(w, "failed: %d/%d\n", r.Failed, len(r.Schedules))
}

func formatKills(kills []KillEvent) string {
	s := ""
	for i, k := range kills {
		if i > 0 {
			s += ", "
		}
		switch {
		case k.OnRecovery && k.RecoveryCount > 0:
			s += fmt.Sprintf("kill %d during recovery #%d of %d", k.Rank, k.RecoveryCount, k.RecoveryOf)
		case k.OnRecovery:
			s += fmt.Sprintf("kill %d during recovery of %d", k.Rank, k.RecoveryOf)
		case k.AtModeledSec > 0:
			s += fmt.Sprintf("kill %d at modeled %.4fs", k.Rank, k.AtModeledSec)
		default:
			s += fmt.Sprintf("kill %d at step %d", k.Rank, k.Step)
		}
	}
	return s
}
