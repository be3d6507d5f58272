package experiments

// The redundancy-decay scenario: repeated failure rounds with no
// application progress (and hence no fresh application-driven
// checkpoints) in between. Under the paper's fixed placement, round one
// destroys checkpoint copies that nothing re-creates until the next
// checkpoint, so a second round of failures can land on the only
// remaining copies. The ckptstore coverage ledger closes that hole with
// proactive repair; this scenario is its acceptance test: kill Degree
// ranks, wait for recovery and repair to quiesce with full coverage,
// kill the complementary ranks, and still finish with the fault-free
// answer bit-for-bit.

import (
	"fmt"
	"math"
	"time"

	"samft/internal/apps/gps"
	"samft/internal/cluster"
	"samft/internal/ft"
	"samft/internal/sam"
)

// DecaySpec configures one repeated-failure decay run (GPS, small scale:
// the scenario is about the fault-tolerance layer, not the workload).
type DecaySpec struct {
	N        int // cluster size (default 4)
	Degree   int // replication degree (default 2)
	ECData   int
	ECParity int
	// GateStep is the application step every rank parks at while the kill
	// rounds run (default 3). Parked applications make no progress, so no
	// application-driven checkpoint separates the rounds — exactly the
	// window where redundancy would otherwise decay.
	GateStep int64
	// Rounds lists the ranks to kill per round (default two complementary
	// rounds of Degree kills: {1,2} then {0,3} for N=4).
	Rounds [][]int
	// RoundTimeout bounds each round's recovery-and-repair quiescence
	// wait; Timeout bounds the final run-to-completion (defaults 30s/60s).
	RoundTimeout time.Duration
	Timeout      time.Duration
}

func (s *DecaySpec) fill() {
	if s.N <= 0 {
		s.N = 4
	}
	if s.Degree <= 0 {
		s.Degree = 2
	}
	if s.GateStep <= 0 {
		s.GateStep = 3
	}
	if s.Rounds == nil {
		half := s.N / 2
		first := make([]int, 0, half)
		second := make([]int, 0, s.N-half)
		for r := 0; r < s.N; r++ {
			// Round one takes the middle ranks (including a non-coordinator
			// mix); round two takes the complement — every rank dies once.
			if r >= 1 && r <= half {
				first = append(first, r)
			} else {
				second = append(second, r)
			}
		}
		s.Rounds = [][]int{first, second}
	}
	if s.RoundTimeout <= 0 {
		s.RoundTimeout = 30 * time.Second
	}
	if s.Timeout <= 0 {
		s.Timeout = 60 * time.Second
	}
}

// DecayResult is one decay run's outcome.
type DecayResult struct {
	Spec     DecaySpec
	Baseline float64
	Answer   float64
	// RepairObjects/RepairBytes total the proactive re-replication traffic
	// across ranks — the scenario requires it to be nonzero, since nothing
	// else restores coverage between the rounds.
	RepairObjects int64
	RepairBytes   int64
	// Problems lists everything wrong: per-round quiescence or coverage
	// failures, the final invariant check, an answer mismatch.
	Problems []string
}

// RunDecay executes the repeated-failure decay scenario.
func RunDecay(spec DecaySpec) (DecayResult, error) {
	spec.fill()
	out := DecayResult{Spec: spec}

	base, err := Run(Spec{
		App: GPS, N: spec.N, Policy: ft.PolicySAM, Degree: spec.Degree, Scale: Small,
		ECData: spec.ECData, ECParity: spec.ECParity,
	})
	if err != nil {
		return out, fmt.Errorf("decay baseline: %w", err)
	}
	out.Baseline = base.Answer

	// Every incarnation of every rank parks at the gate step; the gate
	// releases only after the last kill round's repair has quiesced.
	// Killed incarnations parked here unblock on release and unwind
	// through their dead process's normal kill path.
	gate := make(chan struct{})
	ans := &answerBox{}
	factory := func(rank int) sam.App {
		a := gps.New(rank, spec.N, gpsParams(Small))
		if rank == 0 {
			a.OnResult = ans.put
		}
		hook := func(r int, step int64) {
			if step == spec.GateStep {
				<-gate
			}
		}
		return &hooked{App: a, hook: hook, rank: rank}
	}
	cl := cluster.New(cluster.Config{
		N:          spec.N,
		Policy:     ft.PolicySAM,
		Degree:     spec.Degree,
		ECData:     spec.ECData,
		ECParity:   spec.ECParity,
		AppFactory: factory,
	})
	cl.Start()

	wantRecoveries := 0
	for round, kills := range spec.Rounds {
		for _, r := range kills {
			if cl.Kill(r) {
				wantRecoveries++
			}
		}
		for _, p := range awaitDecayQuiesce(cl, spec, wantRecoveries) {
			out.Problems = append(out.Problems, fmt.Sprintf("round %d: %s", round+1, p))
		}
	}
	close(gate)

	err = cl.WaitFinished(spec.Timeout)
	if err == nil && !cl.Quiesce(10*time.Second) {
		out.Problems = append(out.Problems, "final: protocol traffic did not settle")
	}
	cl.Halt()
	if err == nil {
		err = cl.Err()
	}
	if err != nil {
		return out, err
	}
	for _, p := range CheckInvariants(cl.InvariantSnapshots(), spec.N, spec.Degree, spec.ECData, spec.ECParity) {
		out.Problems = append(out.Problems, "final: "+p)
	}
	out.Answer = ans.get()
	if math.Float64bits(out.Answer) != math.Float64bits(out.Baseline) {
		out.Problems = append(out.Problems, fmt.Sprintf(
			"answer mismatch: got %v, fault-free run produced %v", out.Answer, out.Baseline))
	}
	for r := 0; r < spec.N; r++ {
		st := cl.ProcStats(r)
		out.RepairObjects += st.RepairObjects.Load()
		out.RepairBytes += st.RepairBytes.Load()
	}
	if out.RepairObjects == 0 {
		out.Problems = append(out.Problems,
			"no proactive repair traffic: coverage between rounds was never restored")
	}
	return out, nil
}

// awaitDecayQuiesce polls the cluster until the expected number of
// recoveries completed, no rank knows of a dead unreplaced peer, and the
// live invariant snapshots (including checkpoint coverage and repair
// verdicts) are clean — i.e. the round's rebalancing has quiesced. It
// returns the last set of violations on timeout.
func awaitDecayQuiesce(cl *cluster.Cluster, spec DecaySpec, wantRecoveries int) []string {
	deadline := time.NewTimer(spec.RoundTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	last := []string{"recovery never completed"}
	for {
		recovered := 0
		for r := 0; r < spec.N; r++ {
			recovered += int(cl.ProcStats(r).Recoveries.Load())
		}
		if recovered >= wantRecoveries {
			snaps := cl.LiveInvariantSnapshots()
			if len(snaps) == spec.N {
				dead := 0
				for _, s := range snaps {
					dead += s.DeadRanks
				}
				if dead == 0 {
					last = CheckInvariants(snaps, spec.N, spec.Degree, spec.ECData, spec.ECParity)
					if len(last) == 0 {
						return nil
					}
				} else {
					last = []string{fmt.Sprintf("%d dead unreplaced rank references remain", dead)}
				}
			} else {
				last = []string{fmt.Sprintf("only %d/%d live snapshots", len(snaps), spec.N)}
			}
		}
		select {
		case <-deadline.C:
			out := make([]string, 0, len(last))
			for _, p := range last {
				out = append(out, "quiesce timeout: "+p)
			}
			return out
		case <-tick.C:
		}
	}
}
