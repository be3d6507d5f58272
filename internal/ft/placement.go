package ft

// Replica placement (§4.2): "we always replicate a particular object to a
// specific process which is determined directly from the name of the
// object. Similarly, we always replicate a process's private state to a
// specific process."
//
// Object checkpoint copies must not land on the object's current owner
// (the main copy and its backup on the same host would defeat the
// purpose), so placement skips the owner deterministically.

// fnv1a hashes a 64-bit name (used instead of importing hash/fnv to keep
// this a pure arithmetic function over the name bits).
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

// HomeRank returns the rank that holds directory information for the
// named object.
func HomeRank(name uint64, n int) int {
	if n <= 0 {
		return 0
	}
	return int(fnv1a(name) % uint64(n))
}

// Checkpoint-copy placement moved to internal/ckptstore, which owns the
// ring rule, the coverage ledger, and repair; its ring placement is
// bit-compatible with the rule that used to live here.

// PrivateStateRanks returns the degree ranks that hold copies of rank's
// private state: the next degree ranks in ring order.
func PrivateStateRanks(rank, n, degree int) []int {
	if n <= 1 || degree <= 0 {
		return nil
	}
	if degree > n-1 {
		degree = n - 1
	}
	out := make([]int, 0, degree)
	for i := 1; i <= degree; i++ {
		out = append(out, (rank+i)%n)
	}
	return out
}

// CoordinatorRank returns the rank that coordinates recovery when failed
// crashes: process 0, or process 1 if process 0 is the one that failed
// (§4.5).
func CoordinatorRank(failed int) int {
	if failed == 0 {
		return 1
	}
	return 0
}
