package experiments

import (
	"fmt"
	"testing"
)

// TestReplicaSeedNoCrossJobCollision is the regression for the old
// additive derivation (base + replica*2^20): two jobs whose base seeds
// differed by a multiple of the stride silently shared replica seeds, so
// "independent" replicas re-ran identical simulations. The SplitMix64 mix
// must keep every (base, replica) seed distinct.
func TestReplicaSeedNoCrossJobCollision(t *testing.T) {
	const oldStride = 1 << 20
	bases := []int64{1, 1 + oldStride, 1 + 2*oldStride, -7, 1 << 62}
	seen := make(map[int64]string)
	for _, base := range bases {
		for r := 0; r < 4; r++ {
			s := replicaSeed(base, r)
			key := fmt.Sprintf("base=%d r=%d", base, r)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both derive %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}

// TestReplicaSeedZeroIsBase pins backward compatibility: replica 0 runs
// on the job's own seed, so single-replica sweeps reproduce plain runs.
func TestReplicaSeedZeroIsBase(t *testing.T) {
	for _, base := range []int64{0, 1, -5, 1 << 40} {
		if got := replicaSeed(base, 0); got != base {
			t.Fatalf("replicaSeed(%d, 0) = %d", base, got)
		}
	}
}
