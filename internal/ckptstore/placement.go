// Package ckptstore is the replicated in-memory checkpoint store: it owns
// where checkpoint copies of shared objects are placed, tracks which ranks
// actually hold which copies (the coverage ledger), and plans the repair
// traffic that restores full redundancy after failures instead of letting
// coverage decay until the next checkpoint.
//
// Placement is the paper's rule (§4.2): "we always replicate a particular
// object to a specific process which is determined directly from the name
// of the object" — a shifted ring computed from the name, bit-compatible
// with the historic ft.CheckpointRanks so golden traces and seeded chaos
// schedules are unchanged. Placement answers "where should copies go";
// the Store's ledger answers "where are they now, and what is missing".
package ckptstore

// Kind names the placement rule. Ring is its only value; the type and
// Config.Policy remain so existing callers that spell the placement out
// keep compiling. Nothing branches on it.
type Kind int

// Ring is the paper's shifted-ring placement, the only one there is.
const Ring Kind = 0

// fnv1a hashes a 64-bit name with the same constants as ft.HomeRank, kept
// as a pure arithmetic function so placement needs no imports and stays
// bit-compatible with the historic ft.CheckpointRanks.
func fnv1a(name uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= (name >> (8 * i)) & 0xff
		h *= prime
	}
	return h
}

// ringHolders is the paper's placement: hash the name to a start rank and
// walk the ring of n ranks, skipping the owner. It returns up to
// min(degree, n-1) distinct non-owner ranks in preference order; passing
// degree = n-1 yields the full ordering, which is how the Store extends a
// partial holder set during repair.
func ringHolders(name uint64, owner, n, degree int) []int {
	if n <= 1 || degree <= 0 {
		return nil
	}
	if n-1 < degree {
		degree = n - 1
	}
	out := make([]int, 0, degree)
	start := int(fnv1a(name^0x9e3779b97f4a7c15) % uint64(n))
	for i := 0; len(out) < degree && i < n; i++ {
		c := (start + i) % n
		if c == owner {
			continue
		}
		out = append(out, c)
	}
	return out
}
