package cluster_test

import (
	"testing"

	"hybridqos/internal/cluster"
	"hybridqos/internal/rng"
)

// argMinLoad is the linear reference for Loads.ArgMinExcept: the index of
// the least-loaded cell other than src, lowest index winning ties, or -1.
func argMinLoad(loads []int, src int) int {
	best := -1
	for i, l := range loads {
		if i == src {
			continue
		}
		if best == -1 || l < loads[best] {
			best = i
		}
	}
	return best
}

// checkLoads compares every cell's load and ArgMinExcept from every origin
// against the reference.
func checkLoads(t *testing.T, l *cluster.Loads, ref []int, ctx string) {
	t.Helper()
	for src := range ref {
		if l.Load(src) != ref[src] {
			t.Fatalf("%s: Load(%d) = %d, want %d", ctx, src, l.Load(src), ref[src])
		}
		if got, want := l.ArgMinExcept(src), argMinLoad(ref, src); got != want {
			t.Fatalf("%s: ArgMinExcept(%d) = %d, want %d (loads %v)", ctx, src, got, want, ref)
		}
	}
}

// Loads must agree with the linear reference over random load vectors with
// many ties (few distinct values), every origin, any cell count (powers of
// two and not, down to a single cell) and random update sequences, and keep
// agreeing when its storage is reused by Reset at another size.
func TestLoadsMatchesLinearReference(t *testing.T) {
	r := rng.New(1)
	l := cluster.NewLoads(nil)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(70)
		spread := 1 + r.Intn(4)
		ref := make([]int, n)
		for i := range ref {
			ref[i] = r.Intn(spread)
		}
		if trial%2 == 0 {
			l = cluster.NewLoads(ref)
		} else {
			l.Reset(ref)
		}
		ref = append([]int(nil), ref...) // Loads must have copied its input
		checkLoads(t, l, ref, "initial")
		for step := 0; step < 40; step++ {
			i, delta := r.Intn(n), r.Intn(2*spread+1)-spread
			ref[i] += delta
			l.Add(i, delta)
			checkLoads(t, l, ref, "after Add")
		}
	}
}
