package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// memInterval is how often the sampler reads the runtime's memory.
const memInterval = 5 * time.Millisecond

// memSampler tracks the peak of the memory the Go runtime holds from the
// OS (mapped minus released), per operation: take returns the peak since
// the previous take. It covers the measured phase only: the set-up builds
// and the post-phase checks, whose garbage makes a process-lifetime peak
// RSS wander by a quarter between identical runs, stay out of it. The
// benchmark reports the median of the operations' peaks, because the
// highest of them depends on where the GC cycles happen to fall.
type memSampler struct {
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	peak uint64 // since the last take
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: resident()}
	go func() {
		defer close(m.done)
		t := time.NewTicker(memInterval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				v := resident()
				m.mu.Lock()
				m.peak = max(m.peak, v)
				m.mu.Unlock()
			}
		}
	}()
	return m
}

// take returns the peak in MiB since the previous take or reset, or since
// the sampler started, and starts the next interval.
func (m *memSampler) take() float64 {
	v := resident()
	m.mu.Lock()
	defer m.mu.Unlock()
	peak := max(m.peak, v)
	m.peak = v
	return float64(peak) / (1 << 20)
}

// reset starts the next interval from the memory held now.
func (m *memSampler) reset() {
	v := resident()
	m.mu.Lock()
	m.peak = v
	m.mu.Unlock()
}

// close stops the sampler and waits for its goroutine to end.
func (m *memSampler) close() {
	close(m.stop)
	<-m.done
}

// resident is the memory the Go runtime has mapped and not returned to
// the OS: heap, stacks and runtime metadata.
func resident() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}
