package workloads

import "testing"

// TestSpecValidatePageBytes: a negative page size is refused by Validate,
// with the error Build returns, on every generator that maps accesses to
// pages, and accepted by the generators that ignore it.
func TestSpecValidatePageBytes(t *testing.T) {
	for _, g := range generators {
		spec := Spec{Gen: g.name, Cores: 2, Size: 64, PageBytes: -8}
		verr := spec.Validate()
		wl, berr := spec.Build()
		if !g.pages {
			if verr != nil || berr != nil {
				t.Errorf("%s ignores the page size but refused -8: Validate %v, Build %v", g.name, verr, berr)
			} else if wl.Cores() != 2 {
				t.Errorf("%s: %d cores, want 2", g.name, wl.Cores())
			}
			continue
		}
		if verr == nil {
			t.Errorf("%s: Validate accepted page size -8", g.name)
			continue
		}
		if berr == nil || berr.Error() != verr.Error() {
			t.Errorf("%s: Validate says %q, Build %v", g.name, verr, berr)
		}
	}
}
