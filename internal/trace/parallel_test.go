package trace

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestParallelCallsEachIndexOnce runs Parallel over more indices than
// workers, and over none or one: every index is called exactly once,
// and every call has returned when Parallel does. Under -race the
// per-index writes, read back here, check that the fan-out orders them
// before its return.
func TestParallelCallsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, runtime.GOMAXPROCS(0) + 1, 257} {
		calls := make([]int, n)
		var total atomic.Int64
		Parallel(n, func(i int) {
			calls[i]++
			total.Add(1)
		})
		for i, c := range calls {
			if c != 1 {
				t.Fatalf("n=%d: index %d called %d times", n, i, c)
			}
		}
		if got := total.Load(); got != int64(n) {
			t.Fatalf("n=%d: %d calls", n, got)
		}
	}
}
