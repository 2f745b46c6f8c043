package experiments

import (
	"fmt"

	"hbmsim/internal/directmap"
	"hbmsim/internal/hbm"
	"hbmsim/internal/replacement"
	"hbmsim/internal/report"
	"hbmsim/internal/trace"
	"hbmsim/internal/workloads"
)

// ablDirectMapped measures Lemma 1 empirically: the Frigo-style
// transformation simulating a fully-associative HBM on a direct-mapped
// cache of size Θ(k) must cost O(1) expected accesses per operation and
// O(1) induced misses per original miss, while a naive direct-mapped cache
// (no transformation) suffers conflict misses the theory does not bound.
func ablDirectMapped(o Options) (*Outcome, error) {
	tr, err := workloads.SortTrace(workloads.SortConfig{N: o.SortN, PageBytes: o.PageBytes}, o.Seed)
	if err != nil {
		return nil, err
	}
	// Size the cache to half the trace's unique pages so misses occur.
	// The associative reference, the simulator's store over a dense
	// policy, runs on a densely renumbered copy of the trace (replacement
	// decisions depend only on page identity); the naive direct-mapped
	// cache and the transform keep the original IDs, whose values their
	// hashes depend on.
	denseTr := make(trace.Trace, len(tr))
	uniq := trace.Renumber(denseTr, tr, 0)
	k := uniq / 2
	if k < 4 {
		k = 4
	}

	tbl := report.NewTable(
		fmt.Sprintf("Direct-mapped simulation of a fully-associative HBM (k=%d, %d refs, %d unique pages)", k, len(tr), uniq),
		"policy", "assoc misses", "naive DM misses", "transform misses (orig)", "induced accesses/op", "induced misses/orig miss", "avg chain", "max chain")

	var worstAccessesPerOp, worstMissRatio float64
	for _, kind := range []replacement.Kind{replacement.LRU, replacement.FIFO} {
		pol, err := replacement.NewDense(kind, uniq, o.Seed+1)
		if err != nil {
			return nil, err
		}
		assoc, err := hbm.NewAssoc(k, pol)
		if err != nil {
			return nil, err
		}
		naive, err := hbm.NewDirectMapped(k, o.Seed+2)
		if err != nil {
			return nil, err
		}
		xform, err := directmap.NewTransform(k, kind, 4, o.Seed+3)
		if err != nil {
			return nil, err
		}
		var assocMisses, naiveMisses uint64
		for i, p := range tr {
			if d := denseTr[i]; assoc.Contains(d) {
				assoc.Touch(d)
			} else {
				assocMisses++
				assoc.EnsureRoom(1)
				if _, _, err := assoc.Insert(d); err != nil {
					return nil, err
				}
			}
			if !naive.Contains(p) {
				naiveMisses++
				if _, _, err := naive.Insert(p); err != nil {
					return nil, err
				}
			}
			xform.Access(p)
		}
		st := xform.Stats()
		tbl.AddRow(string(kind), assocMisses, naiveMisses, st.Misses,
			st.AccessesPerOp(), st.MissesPerMiss(), st.AvgChain(), st.MaxChain)
		if st.AccessesPerOp() > worstAccessesPerOp {
			worstAccessesPerOp = st.AccessesPerOp()
		}
		if st.MissesPerMiss() > worstMissRatio {
			worstMissRatio = st.MissesPerMiss()
		}
	}
	return &Outcome{
		ID:    "directmap",
		Title: "Ablation: direct-mapped HBM via the Lemma 1 transformation",
		PaperClaim: "a fully-associative HBM with LRU or FIFO can be simulated on a Θ(k) direct-mapped cache with " +
			"O(1) expected hits per hit and O(1) expected misses per miss (Lemma 1, Corollary 1)",
		Headline: fmt.Sprintf("measured overhead: %.1f induced accesses/op, %.2f induced misses per original miss (both O(1))",
			worstAccessesPerOp, worstMissRatio),
		Tables: []*report.Table{tbl},
	}, nil
}
