package workloads

import (
	"math/rand"
	"testing"

	"hbmsim/internal/memlog"
)

func TestSpGEMMTraceBasics(t *testing.T) {
	tr, err := SpGEMMTrace(SpGEMMConfig{N: 32, Density: 0.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
}

func TestSpGEMMTraceDeterministic(t *testing.T) {
	a, _ := SpGEMMTrace(SpGEMMConfig{N: 24}, 5)
	b, _ := SpGEMMTrace(SpGEMMConfig{N: 24}, 5)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestSpGEMMErrors(t *testing.T) {
	if _, err := SpGEMMTrace(SpGEMMConfig{N: 0}, 1); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := SpGEMMTrace(SpGEMMConfig{N: 8, Density: 1.5}, 1); err == nil {
		t.Fatal("density > 1 accepted")
	}
	if _, err := SpGEMMTrace(SpGEMMConfig{N: 8, Density: -0.1}, 1); err == nil {
		t.Fatal("negative density accepted")
	}
}

func TestSpGEMMWorkloadDisjoint(t *testing.T) {
	wl, err := SpGEMMWorkload(3, SpGEMMConfig{N: 24}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpGEMMDensityScalesTrace(t *testing.T) {
	sparse, err := SpGEMMTrace(SpGEMMConfig{N: 48, Density: 0.05}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := SpGEMMTrace(SpGEMMConfig{N: 48, Density: 0.4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dense) <= len(sparse) {
		t.Fatalf("denser matrices must access more: %d vs %d", len(sparse), len(dense))
	}
}

func TestSpGEMMZeroDensityDefaulted(t *testing.T) {
	// Density 0 means "use the paper's 0.10", not an empty matrix.
	tr, err := SpGEMMTrace(SpGEMMConfig{N: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) == 0 {
		t.Fatal("defaulted density produced empty trace")
	}
}

// TestSpGEMMCorrectProduct verifies the Gustavson kernel against a naive
// dense multiply on a small instance, reading the CSR structures directly.
func TestSpGEMMCorrectProduct(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(42))
	rec := memlog.NewRecorder(nil)
	a := randomCSR(rec, n, 0.3, rng)
	b := randomCSR(rec, n, 0.3, rng)

	// Dense copies.
	da := toDense(a, n)
	db := toDense(b, n)
	want := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				want[i*n+j] += da[i*n+k] * db[k*n+j]
			}
		}
	}

	// Gustavson with the same workspace logic as SpGEMMTrace.
	acc := make([]float64, n)
	mark := make([]int, n)
	for j := range mark {
		mark[j] = -1
	}
	got := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for ak := a.rowPtr.Peek(i); ak < a.rowPtr.Peek(i+1); ak++ {
			k := int(a.colIdx.Peek(int(ak)))
			av := a.vals.Peek(int(ak))
			for bk := b.rowPtr.Peek(k); bk < b.rowPtr.Peek(k+1); bk++ {
				j := int(b.colIdx.Peek(int(bk)))
				bv := b.vals.Peek(int(bk))
				if mark[j] != i {
					mark[j] = i
					acc[j] = av * bv
				} else {
					acc[j] += av * bv
				}
			}
		}
		for j := 0; j < n; j++ {
			if mark[j] == i {
				got[i*n+j] = acc[j]
			}
		}
	}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("product wrong at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func toDense(m csr, n int) []float64 {
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := m.rowPtr.Peek(i); k < m.rowPtr.Peek(i+1); k++ {
			out[i*n+int(m.colIdx.Peek(int(k)))] = m.vals.Peek(int(k))
		}
	}
	return out
}
