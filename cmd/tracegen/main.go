// Command tracegen generates page-reference workloads (instrumented sorts,
// SpGEMM, dense matmul, STREAM, adversarial, synthetic) and saves them as
// trace files for cmd/hbmsim or external tools.
//
// Usage:
//
//	tracegen -gen sort -cores 64 -size 8000 -o sort.hbmt
//	tracegen -gen spgemm -cores 32 -size 96 -o spgemm.txt   # text format
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hbmsim"

	"hbmsim/internal/workloads"
)

func main() {
	var (
		gen       = flag.String("gen", "sort", "workload: "+strings.Join(workloads.Names(), "|"))
		cores     = flag.Int("cores", 16, "number of per-core traces")
		size      = flag.Int("size", 8000, "workload size (sort N, matrix dim, refs)")
		pageBytes = flag.Int("page", 64, "page size in bytes")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("o", "", "output file (.txt for text, else binary); required")
	)
	flag.Parse()
	if *out == "" {
		fail(fmt.Errorf("-o output path is required"))
	}

	wl, err := workloads.Spec{Gen: *gen, Cores: *cores, Size: *size, PageBytes: *pageBytes, Seed: *seed}.Build()
	if err != nil {
		fail(err)
	}
	if err := wl.Validate(); err != nil {
		fail(err)
	}
	if err := hbmsim.WriteWorkload(*out, wl); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s: workload %q, %d cores, %d refs, %d unique pages\n",
		*out, wl.Name, wl.Cores(), wl.TotalRefs(), wl.UniquePages())
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
	os.Exit(1)
}
