package arbiter

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hbmsim/internal/model"
)

// naivePriority is a linear-scan reference for the Priority arbiter:
// pop the request with the smallest (rank, seq).
type naivePriority struct {
	pri  []int32
	reqs []model.Request
}

func (n *naivePriority) push(r model.Request) { n.reqs = append(n.reqs, r) }

func (n *naivePriority) pop() (model.Request, bool) {
	if len(n.reqs) == 0 {
		return model.Request{}, false
	}
	best := 0
	for i := 1; i < len(n.reqs); i++ {
		ri, rb := n.pri[n.reqs[i].Core], n.pri[n.reqs[best].Core]
		if ri < rb || (ri == rb && n.reqs[i].Seq < n.reqs[best].Seq) {
			best = i
		}
	}
	r := n.reqs[best]
	n.reqs = append(n.reqs[:best], n.reqs[best+1:]...)
	return r, true
}

// TestPriorityHeapMatchesNaive drives the heap and the linear scan through
// identical random push/pop/re-permute sequences and demands identical pop
// orders.
func TestPriorityHeapMatchesNaive(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		const p = 12
		rng := rand.New(rand.NewSource(seed))
		heap := MustNew(Priority, p, 0)
		naive := &naivePriority{pri: make([]int32, p)}
		pri := make([]int32, p)
		for i := range pri {
			pri[i] = int32(i)
			naive.pri[i] = int32(i)
		}
		queued := make([]bool, p) // at most one request per core
		seq := uint64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0: // push a random un-queued core
				c := model.CoreID(rng.Intn(p))
				if queued[c] {
					continue
				}
				queued[c] = true
				seq++
				r := model.Request{Core: c, Seq: seq}
				heap.Push(r)
				naive.push(r)
			case 1: // pop
				hr, hok := heap.Pop()
				nr, nok := naive.pop()
				if hok != nok {
					t.Fatalf("seed %d: pop ok mismatch", seed)
				}
				if hok {
					if hr.Core != nr.Core || hr.Seq != nr.Seq {
						t.Fatalf("seed %d: pop order diverges: heap %v vs naive %v", seed, hr, nr)
					}
					queued[hr.Core] = false
				}
			case 2: // re-rank priorities
				rng.Shuffle(p, func(i, j int) { pri[i], pri[j] = pri[j], pri[i] })
				heap.UpdatePriorities(pri)
				copy(naive.pri, pri)
			}
		}
		// Drain both.
		for {
			hr, hok := heap.Pop()
			nr, nok := naive.pop()
			if hok != nok {
				t.Fatalf("seed %d: drain ok mismatch", seed)
			}
			if !hok {
				return true
			}
			if hr.Core != nr.Core || hr.Seq != nr.Seq {
				t.Fatalf("seed %d: drain order diverges: %v vs %v", seed, hr, nr)
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
