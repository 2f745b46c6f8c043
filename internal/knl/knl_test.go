package knl

import (
	"math"
	"testing"
)

const (
	kibT = uint64(1) << 10
	mibT = uint64(1) << 20
	gibT = uint64(1) << 30
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	m := Default()
	m.Threads = 0
	if err := m.Validate(); err == nil {
		t.Error("zero threads accepted")
	}
	m = Default()
	m.L2Bytes = m.L1Bytes / 2
	if err := m.Validate(); err == nil {
		t.Error("shrinking capacities accepted")
	}
	m = Default()
	m.DRAMBandwidth = 0
	if err := m.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestChaseLatencyMonotoneInSize(t *testing.T) {
	m := Default()
	for _, mode := range []Mode{FlatDRAM, Cache} {
		prev := 0.0
		for b := 1 * kibT; b <= 64*gibT; b *= 4 {
			lat, err := m.ChaseLatencyNS(b, mode)
			if err != nil {
				t.Fatalf("%s at %d: %v", mode, b, err)
			}
			if lat < prev {
				t.Fatalf("%s latency decreased at %d bytes: %g < %g", mode, b, lat, prev)
			}
			prev = lat
		}
	}
}

func TestChaseLatencySmallArraysFast(t *testing.T) {
	m := Default()
	lat, err := m.ChaseLatencyNS(1*kibT, FlatDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if lat > m.L1NS*1.5 {
		t.Fatalf("1KiB array should live in L1: %gns", lat)
	}
}

func TestChaseLatencyHBMGap(t *testing.T) {
	// P1: flat HBM tracks flat DRAM plus a small constant for
	// memory-resident arrays.
	m := Default()
	for _, b := range []uint64{64 * mibT, 1 * gibT, 8 * gibT} {
		d, err := m.ChaseLatencyNS(b, FlatDRAM)
		if err != nil {
			t.Fatal(err)
		}
		h, err := m.ChaseLatencyNS(b, FlatHBM)
		if err != nil {
			t.Fatal(err)
		}
		gap := h - d
		if gap <= 0 || gap > m.HBMExtraNS {
			t.Fatalf("HBM-DRAM gap at %d: %gns (want in (0, %g])", b, gap, m.HBMExtraNS)
		}
	}
}

func TestChaseHBMRefusesOversize(t *testing.T) {
	m := Default()
	if _, err := m.ChaseLatencyNS(32*gibT, FlatHBM); err == nil {
		t.Fatal("flat HBM must refuse arrays beyond its capacity")
	}
	if _, err := m.GLUPSBandwidthMiBs(32*gibT, 272, FlatHBM); err == nil {
		t.Fatal("flat HBM bandwidth must refuse arrays beyond its capacity")
	}
}

func TestChaseErrors(t *testing.T) {
	m := Default()
	if _, err := m.ChaseLatencyNS(0, FlatDRAM); err == nil {
		t.Error("zero array size accepted")
	}
	bad := Default()
	bad.Threads = 0
	if _, err := bad.ChaseLatencyNS(1*mibT, FlatDRAM); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestCacheModeDivergesPastHBM(t *testing.T) {
	m := Default()
	within, err := m.ChaseLatencyNS(8*gibT, Cache)
	if err != nil {
		t.Fatal(err)
	}
	beyond, err := m.ChaseLatencyNS(64*gibT, Cache)
	if err != nil {
		t.Fatal(err)
	}
	dramBeyond, err := m.ChaseLatencyNS(64*gibT, FlatDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if beyond <= within {
		t.Fatal("cache latency must grow past HBM capacity")
	}
	if beyond <= dramBeyond {
		t.Fatal("cache mode past HBM must cost more than flat DRAM (double lookup)")
	}
}

func TestGLUPSBandwidthShape(t *testing.T) {
	m := Default()
	d, err := m.GLUPSBandwidthMiBs(8*gibT, m.Threads, FlatDRAM)
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.GLUPSBandwidthMiBs(8*gibT, m.Threads, FlatHBM)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := h / d; ratio < 4 || ratio > 6 {
		t.Fatalf("HBM/DRAM bandwidth ratio %g outside the paper's 4.3-4.8 band", ratio)
	}
	cIn, err := m.GLUPSBandwidthMiBs(8*gibT, m.Threads, Cache)
	if err != nil {
		t.Fatal(err)
	}
	cOut, err := m.GLUPSBandwidthMiBs(32*gibT, m.Threads, Cache)
	if err != nil {
		t.Fatal(err)
	}
	if cIn != h {
		t.Fatalf("cache bandwidth within HBM should equal HBM's: %g vs %g", cIn, h)
	}
	if !(cOut < cIn && cOut > d) {
		t.Fatalf("cache bandwidth past HBM must sit between DRAM and HBM: %g (in %g, dram %g)", cOut, cIn, d)
	}
}

func TestGLUPSThreadScaling(t *testing.T) {
	m := Default()
	half, err := m.GLUPSBandwidthMiBs(1*gibT, m.Threads/2, FlatDRAM)
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.GLUPSBandwidthMiBs(1*gibT, m.Threads, FlatDRAM)
	if err != nil {
		t.Fatal(err)
	}
	over, err := m.GLUPSBandwidthMiBs(1*gibT, m.Threads*2, FlatDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if half >= full {
		t.Fatal("half the threads should not reach full bandwidth")
	}
	if over != full {
		t.Fatal("extra threads cannot exceed channel bandwidth")
	}
}

func TestGLUPSErrors(t *testing.T) {
	m := Default()
	if _, err := m.GLUPSBandwidthMiBs(0, 1, FlatDRAM); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := m.GLUPSBandwidthMiBs(1*mibT, 0, FlatDRAM); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := m.GLUPSBandwidthMiBs(1*mibT, 1, "bogus"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestChaseSimulateConvergesToAnalytic(t *testing.T) {
	m := Default()
	for _, mode := range []Mode{FlatDRAM, FlatHBM, Cache} {
		want, err := m.ChaseLatencyNS(1*gibT, mode)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.ChaseSimulate(1*gibT, mode, 200000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want)/want > 0.02 {
			t.Fatalf("%s: Monte Carlo %g vs analytic %g", mode, got, want)
		}
	}
}

func TestChaseSimulateErrors(t *testing.T) {
	m := Default()
	if _, err := m.ChaseSimulate(1*gibT, FlatDRAM, 0, 1); err == nil {
		t.Error("zero ops accepted")
	}
	if _, err := m.ChaseSimulate(32*gibT, FlatHBM, 10, 1); err == nil {
		t.Error("oversize flat-HBM simulate accepted")
	}
}

func TestPropertiesAllHold(t *testing.T) {
	props, err := Default().CheckProperties()
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 4 {
		t.Fatalf("want 4 properties, got %d", len(props))
	}
	for _, p := range props {
		if !p.Holds {
			t.Errorf("P%d does not hold: %s (%s)", p.ID, p.Description, p.Detail)
		}
		if p.Detail == "" {
			t.Errorf("P%d detail empty", p.ID)
		}
	}
}

func TestPropertiesDetectMiscalibration(t *testing.T) {
	// A machine whose HBM bandwidth equals DRAM's must fail P2.
	m := Default()
	m.HBMBandwidth = m.DRAMBandwidth
	props, err := m.CheckProperties()
	if err != nil {
		t.Fatal(err)
	}
	if props[1].Holds {
		t.Fatal("P2 should fail when HBM bandwidth equals DRAM's")
	}
}
