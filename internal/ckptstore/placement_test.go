package ckptstore

import (
	"testing"

	"samft/internal/xrand"
)

// oldCheckpointRanks is the historic ft.CheckpointRanks rule, kept
// verbatim as a golden reference: ring placement must stay bit-compatible
// with it so golden traces and seeded chaos schedules recorded before the
// ckptstore refactor still describe the same copy traffic.
func oldCheckpointRanks(name uint64, owner, n, degree int) []int {
	if n <= 1 || degree <= 0 {
		return nil
	}
	if degree > n-1 {
		degree = n - 1
	}
	out := make([]int, 0, degree)
	start := int(fnv1a(name^0x9e3779b97f4a7c15) % uint64(n))
	for i := 0; len(out) < degree && i < n; i++ {
		r := (start + i) % n
		if r == owner {
			continue
		}
		out = append(out, r)
	}
	return out
}

func TestRingBitCompatible(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(15)
		owner := rng.Intn(n)
		degree := 1 + rng.Intn(n)
		name := rng.Uint64()
		got := ringHolders(name, owner, n, degree)
		want := oldCheckpointRanks(name, owner, n, degree)
		if len(got) != len(want) {
			t.Fatalf("ring(%d, owner %d, n %d, deg %d) = %v, old rule %v", name, owner, n, degree, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ring(%d, owner %d, n %d, deg %d) = %v, old rule %v", name, owner, n, degree, got, want)
			}
		}
	}
}

// Placement must return distinct non-owner ranks, at most
// min(degree, n-1) of them, and exactly that many when possible.
func TestPlacementProperties(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(15)
		owner := rng.Intn(n)
		degree := 1 + rng.Intn(n)
		name := rng.Uint64()
		hs := ringHolders(name, owner, n, degree)
		want := degree
		if n-1 < want {
			want = n - 1
		}
		if len(hs) != want {
			t.Fatalf("got %d holders, want %d (n %d, degree %d)", len(hs), want, n, degree)
		}
		seen := make(map[int]bool)
		for _, h := range hs {
			if h == owner {
				t.Fatalf("placed a copy on the owner %d: %v", owner, hs)
			}
			if h < 0 || h >= n {
				t.Fatalf("rank %d out of range [0,%d)", h, n)
			}
			if seen[h] {
				t.Fatalf("duplicate holder %d in %v", h, hs)
			}
			seen[h] = true
		}
	}
}

// Placement must be a deterministic function of its inputs.
func TestPlacementDeterministic(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 200; trial++ {
		name := rng.Uint64()
		owner := rng.Intn(7)
		a := ringHolders(name, owner, 7, 3)
		b := ringHolders(name, owner, 7, 3)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("holders not deterministic: %v vs %v", a, b)
			}
		}
	}
}

// Balance: over many random object names, the most-loaded rank must not
// carry disproportionately more copies than the least-loaded one. Ring
// placement hashes names, so load concentrates only if the hash is broken.
func TestPlacementBalance(t *testing.T) {
	const n, degree, objects = 8, 2, 4000
	rng := xrand.New(19)
	names := make([]uint64, objects)
	owners := make([]int, objects)
	for i := range names {
		names[i] = rng.Uint64()
		owners[i] = rng.Intn(n)
	}
	load := make([]int, n)
	for i, name := range names {
		for _, h := range ringHolders(name, owners[i], n, degree) {
			load[h]++
		}
	}
	min, max := load[0], load[0]
	for _, l := range load {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if min == 0 || float64(max)/float64(min) > 1.5 {
		t.Errorf("unbalanced load %v (max/min %.2f > 1.5)", load, float64(max)/float64(min))
	}
}
