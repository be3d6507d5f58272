package scenario

import (
	"samft/internal/experiments"
	"samft/internal/ft"
)

// defaultDegree is the replication degree when the file omits it — the
// same degree the chaos sweeps run at.
const defaultDegree = 2

// Compiled is a validated scenario lowered to executable specs plus the
// resolved assertion thresholds.
type Compiled struct {
	Scenario *Scenario
	// Path is the source file ("" when loaded from bytes); campaign
	// reports lead with it.
	Path string
	// Spec is the faulted run.
	Spec experiments.Spec
	// Baseline is the fault-free twin (same fleet and FT configuration,
	// no kills, no chaos) the answer assertion compares against.
	Baseline experiments.Spec
	// Resolved assertions.
	CheckAnswer    bool
	MaxRecoverySec float64
	MinKills       int
}

// Compile lowers a validated scenario. It must only be called on a
// scenario that passed Load (or validate): unknown enum values panic
// here rather than guess.
func Compile(s *Scenario, path string) Compiled {
	spec := experiments.Spec{
		N:         s.Fleet.Procs,
		App:       compileApp(s.Fleet.App),
		Policy:    compilePolicy(s.Fleet.FT.Policy),
		Degree:    s.Fleet.FT.Degree,
		ChaosSeed: s.Seed,
	}
	if spec.Degree == 0 {
		spec.Degree = defaultDegree
	}
	if s.Fleet.Scale == "paper" {
		spec.Scale = experiments.Paper
	}
	if ec := s.Fleet.FT.EC; ec != nil {
		spec.ECData, spec.ECParity = ec.Data, ec.Parity
	}
	for _, ev := range s.Events {
		switch {
		case ev.Kill != nil:
			k := ev.Kill
			kill := experiments.KillEvent{
				Rank:         k.Rank,
				Step:         k.AtStep,
				AtModeledSec: k.AtModeledSec,
			}
			if k.OnRecoveryOf != nil {
				kill.OnRecovery = true
				kill.RecoveryOf = *k.OnRecoveryOf
				kill.RecoveryCount = k.OnRecoveryCount
			}
			spec.Kills = append(spec.Kills, kill)
		case ev.Jitter != nil:
			spec.JitterUS = ev.Jitter.US
		case ev.Notify != nil:
			spec.NotifyDrop = ev.Notify.Drop
			spec.NotifyDup = ev.Notify.Dup
		case ev.SlowHost != nil:
			if spec.HostSlowdown == nil {
				spec.HostSlowdown = make([]float64, s.Fleet.Procs)
				for i := range spec.HostSlowdown {
					spec.HostSlowdown[i] = 1
				}
			}
			spec.HostSlowdown[ev.SlowHost.Rank] = ev.SlowHost.Factor
		}
	}
	spec.CheckInvariants = boolOr(s.Assert.Invariants, true)

	// The baseline twin keeps the fleet and FT configuration (so the
	// answer comparison isolates the faults) but drops every perturbation:
	// kills, network chaos, and host slowdowns, none of which may change
	// the computed answer.
	baseline := spec
	baseline.Kills = nil
	baseline.ChaosSeed = 0
	baseline.JitterUS = 0
	baseline.NotifyDrop, baseline.NotifyDup = false, false
	baseline.HostSlowdown = nil
	baseline.CheckInvariants = false
	baseline.Tracer = nil

	c := Compiled{
		Scenario:       s,
		Path:           path,
		Spec:           spec,
		Baseline:       baseline,
		CheckAnswer:    boolOr(s.Assert.AnswerMatchesBaseline, true),
		MaxRecoverySec: s.Assert.MaxRecoveryModeledSec,
	}
	if s.Assert.MinKillsApplied != nil {
		c.MinKills = *s.Assert.MinKillsApplied
	} else {
		c.MinKills = countKills(s)
	}
	return c
}

func compileApp(app string) experiments.AppKind {
	switch app {
	case "gps":
		return experiments.GPS
	case "water":
		return experiments.Water
	case "barnes":
		return experiments.Barnes
	}
	panic("scenario: Compile on unvalidated app " + app)
}

func compilePolicy(p string) ft.Policy {
	switch p {
	case "", "sam":
		return ft.PolicySAM
	case "naive":
		return ft.PolicyNaive
	case "off":
		return ft.PolicyOff
	}
	panic("scenario: Compile on unvalidated policy " + p)
}
