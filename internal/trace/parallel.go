package trace

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel calls f(0), ..., f(n-1), one call per core of a workload, and
// returns once every call has returned. The calling goroutine works
// through the indices together with at most GOMAXPROCS-1 goroutines it
// starts, each taking the next index from a shared counter, so a call
// allocates per worker rather than per index. Calls for distinct indices
// may run concurrently.
func Parallel(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n) - 1
	if workers <= 0 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	p := &fanout{n: int64(n), f: f}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			p.work()
		}()
	}
	p.work()
	p.wg.Wait()
}

// fanout is one Parallel call's shared state.
type fanout struct {
	next atomic.Int64
	n    int64
	f    func(i int)
	wg   sync.WaitGroup
}

// work calls f on indices taken from the counter until none are left.
func (p *fanout) work() {
	for i := p.next.Add(1) - 1; i < p.n; i = p.next.Add(1) - 1 {
		p.f(int(i))
	}
}
