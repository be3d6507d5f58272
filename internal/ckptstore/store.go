package ckptstore

// The Store is one process's view of its own objects' checkpoint copies:
// a coverage ledger mapping object name -> (checkpoint sequence, holder
// set). The paper never needed this record because its placement is a
// pure function of the name — anybody could recompute where copies
// *should* be. Three things break that:
//
//   - repair can move copies off the ring: while a ring holder is down
//     and not yet replaced, repair re-creates its copy on the next live
//     rank in ring order, so the ring set no longer names the holders;
//   - erasure coding gives each holder a distinct shard, so "which rank
//     holds what" carries real information;
//   - failures destroy copies, and with no record of what was lost,
//     redundancy silently decays until the next checkpoint happens to
//     refresh it.
//
// The ledger is owned by the object's owner, updated at checkpoint commit
// time, invalidated when a rank's incarnation is replaced (DropRank), and
// consulted to plan repair traffic (RepairPlan) that proactively restores
// full coverage.

import "sort"

// Holder records one checkpoint-copy holder. Shard is the 1-based
// erasure-coding shard index the rank holds, or 0 for a full-frame copy.
type Holder struct {
	Rank  int
	Shard int
}

// Entry is the ledger record for one object: the checkpoint sequence its
// copies were cut at and the ranks holding them.
type Entry struct {
	Seq     int64
	Holders []Holder
}

// Config configures one process's store.
type Config struct {
	Rank   int
	N      int
	Degree int
	// Policy is always Ring, the only placement; it is accepted and
	// ignored.
	Policy Kind
	EC     ECParams
}

// Store is the per-process replicated checkpoint store state.
type Store struct {
	cfg    Config
	ledger map[uint64]Entry
}

// ECFeasible reports whether a (k,m) code can run on an n-process
// cluster: k >= 1, m >= 1 and k+m <= n-1, so every shard lands on a
// distinct non-owner rank. NewStore drops an infeasible code to full
// replication.
func ECFeasible(ec ECParams, n int) bool {
	return ec.validate() == nil && ec.Shards() <= n-1
}

// KillBudget is the number of distinct ranks that may be down at once
// with recovery still guaranteed: m under a feasible (k,m) code (it
// decodes after at most m losses), min(degree, n-1) under full
// replication, and never less than 1.
func KillBudget(degree, n int, ec ECParams) int {
	budget := degree
	if n-1 < budget {
		budget = n - 1
	}
	if ECFeasible(ec, n) {
		budget = ec.M
	}
	if budget < 1 {
		budget = 1
	}
	return budget
}

// NewStore builds a store. The EC parameters are dropped (full
// replication) when they are not ECFeasible on the cluster.
func NewStore(cfg Config) *Store {
	if cfg.Degree <= 0 {
		cfg.Degree = 1
	}
	if !ECFeasible(cfg.EC, cfg.N) {
		cfg.EC = ECParams{}
	}
	return &Store{cfg: cfg, ledger: make(map[uint64]Entry)}
}

// EC returns the active erasure-coding parameters (zero if disabled, which
// includes the case where NewStore dropped an infeasible configuration).
func (s *Store) EC() ECParams { return s.cfg.EC }

// Want returns the number of copies (or shards) a fully covered object
// has: min(Degree, N-1) full frames, or k+m shards under erasure coding.
func (s *Store) Want() int {
	if s.cfg.EC.Enabled() {
		return s.cfg.EC.Shards()
	}
	w := s.cfg.Degree
	if s.cfg.N-1 < w {
		w = s.cfg.N - 1
	}
	return w
}

// Plan returns the ranks that should receive the named object's next
// checkpoint copies, in ring order. Under erasure coding the i-th rank
// receives shard i+1.
func (s *Store) Plan(name uint64, owner int) []int {
	return ringHolders(name, owner, s.cfg.N, s.Want())
}

// Record replaces the ledger entry for name: a fresh checkpoint at seq
// placed copies on holders.
func (s *Store) Record(name uint64, seq int64, holders []Holder) {
	s.ledger[name] = Entry{Seq: seq, Holders: append([]Holder(nil), holders...)}
}

// AddHolder appends one holder to name's entry — a repair copy joining an
// existing checkpoint. A missing or stale entry is replaced.
func (s *Store) AddHolder(name uint64, seq int64, h Holder) {
	e, ok := s.ledger[name]
	if !ok || e.Seq != seq {
		s.ledger[name] = Entry{Seq: seq, Holders: []Holder{h}}
		return
	}
	for _, have := range e.Holders {
		if have.Rank == h.Rank {
			return
		}
	}
	e.Holders = append(e.Holders, h)
	s.ledger[name] = e
}

// Lookup returns the ledger entry for name.
func (s *Store) Lookup(name uint64) (Entry, bool) {
	e, ok := s.ledger[name]
	return e, ok
}

// HolderRanks returns the recorded holder ranks for name in ascending
// order — the set to notify when the object's copies become stale or the
// object is freed.
func (s *Store) HolderRanks(name uint64) []int {
	e, ok := s.ledger[name]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(e.Holders))
	for _, h := range e.Holders {
		out = append(out, h.Rank)
	}
	sort.Ints(out)
	return out
}

// Forget drops name's ledger entry (object freed or migrated away).
func (s *Store) Forget(name uint64) {
	delete(s.ledger, name)
}

// DropRank removes rank from every entry's holder set — its incarnation
// was replaced, so whatever copies it held are gone — and returns the
// affected names in ascending order so the owner can plan repairs
// deterministically.
func (s *Store) DropRank(rank int) []uint64 {
	var affected []uint64
	for name, e := range s.ledger {
		kept := e.Holders[:0]
		for _, h := range e.Holders {
			if h.Rank != rank {
				kept = append(kept, h)
			}
		}
		if len(kept) != len(e.Holders) {
			e.Holders = kept
			s.ledger[name] = e
			affected = append(affected, name)
		}
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	return affected
}

// Coverage returns how many copies of name the ledger records: distinct
// holder ranks for full replication, distinct shard indices on distinct
// ranks under erasure coding.
func (s *Store) Coverage(name uint64) int {
	e, ok := s.ledger[name]
	if !ok {
		return 0
	}
	if !s.cfg.EC.Enabled() {
		seen := make(map[int]bool, len(e.Holders))
		for _, h := range e.Holders {
			seen[h.Rank] = true
		}
		return len(seen)
	}
	idx := make(map[int]bool, len(e.Holders))
	for _, h := range e.Holders {
		if h.Shard > 0 {
			idx[h.Shard] = true
		}
	}
	return len(idx)
}

// RepairPlan returns the holders to create so that name regains full
// coverage: which ranks should receive a repair copy, and (under erasure
// coding) which shard each should hold. exclude, when non-nil, vetoes
// candidate ranks the caller knows to be unusable right now (dead and not
// yet replaced). An empty plan means coverage is already full or no
// eligible ranks remain.
func (s *Store) RepairPlan(name uint64, owner int, exclude func(rank int) bool) []Holder {
	e, ok := s.ledger[name]
	if !ok {
		return nil
	}
	holding := make(map[int]bool, len(e.Holders))
	for _, h := range e.Holders {
		holding[h.Rank] = true
	}
	// The full ring ordering, minus current holders and vetoed ranks,
	// supplies new homes in deterministic order.
	var cands []int
	for _, c := range ringHolders(name, owner, s.cfg.N, s.cfg.N-1) {
		if holding[c] || (exclude != nil && exclude(c)) {
			continue
		}
		cands = append(cands, c)
	}
	if !s.cfg.EC.Enabled() {
		need := s.Want() - len(holding)
		if need <= 0 {
			return nil
		}
		if need > len(cands) {
			need = len(cands)
		}
		out := make([]Holder, 0, need)
		for _, c := range cands[:need] {
			out = append(out, Holder{Rank: c})
		}
		return out
	}
	have := make(map[int]bool, len(e.Holders))
	for _, h := range e.Holders {
		if h.Shard > 0 {
			have[h.Shard] = true
		}
	}
	var out []Holder
	for idx := 1; idx <= s.cfg.EC.Shards() && len(cands) > 0; idx++ {
		if have[idx] {
			continue
		}
		out = append(out, Holder{Rank: cands[0], Shard: idx})
		cands = cands[1:]
	}
	return out
}

// Names returns every ledgered name in ascending order.
func (s *Store) Names() []uint64 {
	out := make([]uint64, 0, len(s.ledger))
	for name := range s.ledger {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
