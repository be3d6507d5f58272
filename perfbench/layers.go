package main

// Per-layer microbenchmarks: wall-clock timings of single layers' public
// calls on inputs shaped like the workload (the workload's payload type
// at paper size, eight processes, the workload's object names). They run
// only with --trace 1, after the timed loop, each for the test.benchtime
// flag's duration (testing's default of one second; shorter in smoke mode
// and tests).

import (
	"fmt"
	"testing"

	"samft/internal/apps/barnes"
	"samft/internal/apps/gps"
	"samft/internal/apps/water"
	"samft/internal/benchkit"
	"samft/internal/ckptstore"
	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/sam"
	"samft/internal/xrand"
)

// nsPerOp is a benchmark result's nanoseconds per operation, unrounded.
func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// timeOp times f with testing.Benchmark, which runs it for the
// test.benchtime flag's duration, and returns the result.
func timeOp(f func()) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
}

// payload builds the workload's largest registered payload at paper
// size: the Barnes-Hut octree over all bodies, a GPS shard holding one
// process's share of the population, or a full Water frame.
func payload(app appKind, seed uint64) interface{} {
	r := xrand.New(seed)
	switch app {
	case appBarnes:
		p := barnes.DefaultParams()
		bodies := make([]barnes.Body, p.Bodies)
		for i := range bodies {
			bodies[i] = barnes.Body{
				Pos:  [3]float64{r.Float64() * p.Size, r.Float64() * p.Size, r.Float64() * p.Size},
				Mass: 1 / float64(p.Bodies),
			}
		}
		return barnes.BuildTree(bodies, p.Size)
	case appGPS:
		p := gps.DefaultParams()
		s := &gps.Shard{Rank: 0, Gen: 1, Tops: make([]gps.Individual, p.Population/procs)}
		for i := range s.Tops {
			s.Tops[i] = gps.Individual{Tree: gps.RandomTree(r, gps.NVars, p.MaxDepth), Fitness: r.Float64()}
		}
		return s
	default:
		p := water.DefaultParams()
		f := &water.Frame{Step: 1, Pos: make([]water.Vec, p.Molecules), Vel: make([]water.Vec, p.Molecules)}
		for i := range f.Pos {
			f.Pos[i] = water.Vec{X: r.Float64() * p.BoxSize, Y: r.Float64() * p.BoxSize, Z: r.Float64() * p.BoxSize}
			f.Vel[i] = water.Vec{X: r.NormFloat64() * 0.05, Y: r.NormFloat64() * 0.05, Z: r.NormFloat64() * 0.05}
		}
		return f
	}
}

// objectNames returns names shaped like the workload's shared objects:
// one per (step, producer) pair.
func objectNames(app appKind) []uint64 {
	steps, width := 4, procs // Barnes-Hut: a partition per step and rank
	switch app {
	case appGPS:
		steps = 10 // a migrant shard per generation and rank
	case appWater:
		steps, width = 6, 16 // a force value per step and task
	}
	var names []uint64
	for s := 0; s < steps; s++ {
		for k := 0; k < width; k++ {
			names = append(names, uint64(sam.MkName(1, s, k)))
		}
	}
	return names
}

// layerMetrics times each layer's public calls and adds the results.
func layerMetrics(app appKind, seed uint64, add func(name, unit string, v float64)) error {
	// codec: pack and unpack of the workload's payload.
	v := payload(app, seed)
	buf, err := codec.Pack(v)
	if err != nil {
		return fmt.Errorf("codec.Pack: %w", err)
	}
	if _, err := codec.Unpack(buf); err != nil {
		return fmt.Errorf("codec.Unpack: %w", err)
	}
	add("codec.payload_bytes", "B", float64(len(buf)))
	pack := timeOp(func() { _, _ = codec.Pack(v) })
	add("codec.pack_ns_per_byte", "ns/B", nsPerOp(pack)/float64(len(buf)))
	add("codec.unpack_ns_per_byte", "ns/B", nsPerOp(timeOp(func() { _, _ = codec.Unpack(buf) }))/float64(len(buf)))
	add("codec.pack_allocs", "count", float64(pack.AllocsPerOp()))

	// netsim: the shared fabric benchmark bodies.
	add("netsim.send_recv_ns", "ns", nsPerOp(testing.Benchmark(benchkit.SendRecv)))
	a2a := testing.Benchmark(benchkit.AllToAll(procs, 4))
	add("netsim.all_to_all_8_msgs_per_s", "1/s", a2a.Extra[benchkit.MsgsPerSec])

	// ft: one delta stamp built and absorbed between two of eight
	// processes, after the sender's clock ticked.
	clocks := make([]*ft.Clocks, procs)
	for i := range clocks {
		clocks[i] = ft.NewClocks(i, procs)
	}
	i := 0
	add("ft.delta_stamp_ns", "ns", nsPerOp(timeOp(func() {
		src := i % procs
		dst := (src + 1 + i/procs%(procs-1)) % procs
		clocks[src].Tick()
		clocks[dst].AbsorbDelta(clocks[src].DeltaStampFor(dst))
		i++
	})))

	// ckptstore: placement of every object's checkpoint copies, then
	// repair plans once the holder of those copies has been dropped.
	names := objectNames(app)
	store := ckptstore.NewStore(ckptstore.Config{Rank: 0, N: procs, Degree: 1, Policy: ckptstore.Ring})
	add("ckptstore.plan_ns", "ns", nsPerOp(timeOp(func() {
		for _, n := range names {
			store.Plan(n, 0)
		}
	}))/float64(len(names)))
	for seq, n := range names {
		var hs []ckptstore.Holder
		for _, r := range store.Plan(n, 0) {
			hs = append(hs, ckptstore.Holder{Rank: r})
		}
		store.Record(n, int64(seq), hs)
	}
	store.DropRank(1) // ring placement puts owner 0's copies on rank 1
	dead := func(r int) bool { return r == 1 }
	add("ckptstore.repair_plan_ns", "ns", nsPerOp(timeOp(func() {
		for _, n := range names {
			store.RepairPlan(n, 0, dead)
		}
	}))/float64(len(names)))
	return nil
}
