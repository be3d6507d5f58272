package scenario

import (
	"fmt"

	"samft/internal/ckptstore"
)

// validate performs every semantic check and returns all violations,
// positioned via the index. The rules are deliberately stricter than the
// runtime (which tolerates, say, an infeasible EC code by silently
// falling back to full replication): a scenario file is a reviewable
// claim, and a claim that silently means something else is a bug.
func validate(s *Scenario, idx *posIndex) ErrorList {
	var errs ErrorList
	add := func(path, format string, args ...interface{}) {
		errs = append(errs, idx.at(path, fmt.Sprintf(format, args...)))
	}

	if s.Name == "" {
		add("name", "scenario name is required")
	}
	n := s.Fleet.Procs
	if n < 1 {
		add("fleet.procs", "procs must be >= 1 (got %d)", n)
		n = 1 // keep rank-range checks from cascading
	}
	switch s.Fleet.App {
	case "gps", "water", "barnes":
	case "":
		add("fleet.app", `app is required: "gps", "water", or "barnes"`)
	default:
		add("fleet.app", `unknown app %q (want "gps", "water", or "barnes")`, s.Fleet.App)
	}
	switch s.Fleet.Scale {
	case "", "small", "paper":
	default:
		add("fleet.scale", `unknown scale %q (want "small" or "paper")`, s.Fleet.Scale)
	}
	switch s.Fleet.FT.Policy {
	case "", "sam", "naive", "off":
	default:
		add("fleet.ft.policy", `unknown ft policy %q (want "sam", "naive", or "off")`, s.Fleet.FT.Policy)
	}
	if s.Fleet.FT.Degree < 0 {
		add("fleet.ft.degree", "degree must be >= 0 (got %d)", s.Fleet.FT.Degree)
	}
	if ec := s.Fleet.FT.EC; ec != nil {
		if ec.Data < 1 {
			add("fleet.ft.ec.data", "ec data shards must be >= 1 (got %d)", ec.Data)
		}
		if ec.Parity < 1 {
			add("fleet.ft.ec.parity", "ec parity shards must be >= 1 (got %d)", ec.Parity)
		}
		if ec.Data >= 1 && ec.Parity >= 1 && !ckptstore.ECFeasible(s.Fleet.FT.ecParams(), n) {
			add("fleet.ft.ec", "ec(%d,%d) needs %d non-owner ranks but the fleet has %d; the runtime would silently fall back to full replication",
				ec.Data, ec.Parity, ec.Data+ec.Parity, n-1)
		}
	}

	errs = append(errs, validateEvents(s, idx, n)...)

	a := s.Assert
	if a.MaxRecoveryModeledSec < 0 {
		add("assert.max_recovery_modeled_sec", "bound must be >= 0 (got %v)", a.MaxRecoveryModeledSec)
	}
	kills := countKills(s)
	if a.MaxRecoveryModeledSec > 0 && kills == 0 {
		add("assert.max_recovery_modeled_sec", "recovery bound asserted but the schedule has no kill events")
	}
	if a.MinKillsApplied != nil {
		if *a.MinKillsApplied < 0 {
			add("assert.min_kills_applied", "must be >= 0 (got %d)", *a.MinKillsApplied)
		} else if *a.MinKillsApplied > kills {
			add("assert.min_kills_applied", "requires %d applied kills but the schedule has only %d kill events", *a.MinKillsApplied, kills)
		}
	}
	if kills > 0 && s.Fleet.FT.Policy == "off" {
		add("fleet.ft.policy", `policy "off" cannot recover from the schedule's kill events; the run would never finish`)
	}
	return errs
}

// validateEvents checks every event plus the cross-event rules: kill
// triggers well-formed, ranks in range, on_recovery_of referencing an
// earlier victim, at most one jitter/notify event, one slow_host per
// rank, and the failure schedule inside the survivable budget.
func validateEvents(s *Scenario, idx *posIndex, n int) ErrorList {
	var errs ErrorList
	add := func(path, format string, args ...interface{}) {
		errs = append(errs, idx.at(path, fmt.Sprintf(format, args...)))
	}
	degree := s.Fleet.FT.Degree
	if degree == 0 {
		degree = defaultDegree
	}
	// budget is the number of distinct ranks that may be down at once
	// with recovery still guaranteed.
	ec := s.Fleet.FT.ecParams()
	ecOn := ckptstore.ECFeasible(ec, n)
	budget := ckptstore.KillBudget(degree, n, ec)

	victims := make(map[int]bool)
	stepVictims := make(map[int64]map[int]bool) // at_step -> distinct ranks
	slowed := make(map[int]bool)
	jitterSeen, notifySeen := false, false
	for i, ev := range s.Events {
		path := fmt.Sprintf("events[%d]", i)
		set := 0
		if ev.Kill != nil {
			set++
		}
		if ev.Jitter != nil {
			set++
		}
		if ev.Notify != nil {
			set++
		}
		if ev.SlowHost != nil {
			set++
		}
		if set != 1 {
			add(path, "event must set exactly one of kill, jitter, notify, slow_host (got %d)", set)
			continue
		}
		switch {
		case ev.Kill != nil:
			k := ev.Kill
			if k.Rank < 0 || k.Rank >= n {
				add(path+".kill.rank", "rank %d out of range [0,%d)", k.Rank, n)
			}
			triggers := 0
			if k.AtStep > 0 {
				triggers++
			}
			if k.AtModeledSec > 0 {
				triggers++
			}
			if k.OnRecoveryOf != nil {
				triggers++
			}
			if k.AtStep < 0 {
				add(path+".kill.at_step", "at_step must be > 0 (got %d)", k.AtStep)
			}
			if k.AtModeledSec < 0 {
				add(path+".kill.at_modeled_sec", "at_modeled_sec must be > 0 (got %v)", k.AtModeledSec)
			}
			if triggers != 1 {
				add(path+".kill", "kill needs exactly one trigger: at_step, at_modeled_sec, or on_recovery_of (got %d)", triggers)
			}
			if k.OnRecoveryOf != nil {
				r := *k.OnRecoveryOf
				if r < 0 || r >= n {
					add(path+".kill.on_recovery_of", "rank %d out of range [0,%d)", r, n)
				} else if !victims[r] {
					add(path+".kill.on_recovery_of", "rank %d is not killed by an earlier event, so this trigger would never fire", r)
				}
			}
			if k.OnRecoveryCount < 0 {
				add(path+".kill.on_recovery_count", "must be >= 0 (got %d)", k.OnRecoveryCount)
			}
			if k.OnRecoveryCount > 0 && k.OnRecoveryOf == nil {
				add(path+".kill.on_recovery_count", "only meaningful with on_recovery_of")
			}
			if k.Rank >= 0 && k.Rank < n {
				if k.AtStep > 0 {
					if stepVictims[k.AtStep] == nil {
						stepVictims[k.AtStep] = make(map[int]bool)
					}
					stepVictims[k.AtStep][k.Rank] = true
					if got := len(stepVictims[k.AtStep]); got > budget {
						add(path+".kill", "%d distinct ranks killed at step %d exceeds the survivable budget of %d (%s)",
							got, k.AtStep, budget, budgetName(ecOn))
					}
				}
				if ecOn && !victims[k.Rank] && len(victims) >= budget {
					add(path+".kill", "kill of rank %d raises the schedule's distinct victims above ec parity %d; the code cannot guarantee decoding",
						k.Rank, budget)
				}
				victims[k.Rank] = true
			}
		case ev.Jitter != nil:
			if ev.Jitter.US <= 0 {
				add(path+".jitter.us", "jitter must be > 0 microseconds (got %v)", ev.Jitter.US)
			}
			if jitterSeen {
				add(path+".jitter", "duplicate jitter event; only one is allowed")
			}
			jitterSeen = true
		case ev.Notify != nil:
			if !ev.Notify.Drop && !ev.Notify.Dup {
				add(path+".notify", "notify event enables neither drop nor dup")
			}
			if notifySeen {
				add(path+".notify", "duplicate notify event; only one is allowed")
			}
			notifySeen = true
		case ev.SlowHost != nil:
			sh := ev.SlowHost
			if sh.Rank < 0 || sh.Rank >= n {
				add(path+".slow_host.rank", "rank %d out of range [0,%d)", sh.Rank, n)
			} else if slowed[sh.Rank] {
				add(path+".slow_host.rank", "rank %d already has a slow_host event", sh.Rank)
			} else {
				slowed[sh.Rank] = true
			}
			if sh.Factor <= 0 {
				add(path+".slow_host.factor", "factor must be > 0 (got %v)", sh.Factor)
			}
		}
	}
	return errs
}

// ecParams is the runtime form of the file's erasure code (zero when
// absent).
func (f FT) ecParams() ckptstore.ECParams {
	if f.EC == nil {
		return ckptstore.ECParams{}
	}
	return ckptstore.ECParams{K: f.EC.Data, M: f.EC.Parity}
}

func budgetName(ec bool) string {
	if ec {
		return "ec parity"
	}
	return "min(degree, procs-1)"
}

func countKills(s *Scenario) int {
	n := 0
	for _, ev := range s.Events {
		if ev.Kill != nil {
			n++
		}
	}
	return n
}
