package serve

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestSpecJSONPinned pins the wire form of a job spec. The manifest
// journals specs in this form and job views return it, so every
// WorkloadSpec and ConfigSpec field keeps its name, order and omitempty
// rule, and the bytes decode back to the same spec.
func TestSpecJSONPinned(t *testing.T) {
	wl := WorkloadSpec{Gen: "spgemm", Cores: 4, Size: 48, PageBytes: 128, Seed: 9}
	cfg := ConfigSpec{
		HBMSlots: 96, Channels: 2, Arbiter: "priority", Replacement: "clock",
		Mapping: "direct", Permuter: "dynamic", RemapPeriod: 960, FetchLatency: 3,
		Backend: "hybrid", BackendParams: "fast_slots=8", Seed: 5, MaxTicks: 1 << 20,
	}
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"sim", Spec{Kind: KindSim, Name: "pinned-sim", Workload: &wl, Config: &cfg,
			CheckpointEveryTicks: 4096, TimeoutSeconds: 30},
			`{"kind":"sim","name":"pinned-sim","workload":{"gen":"spgemm","cores":4,"size":48,"page_bytes":128,"seed":9},"config":{"hbm_slots":96,"channels":2,"arbiter":"priority","replacement":"clock","mapping":"direct","permuter":"dynamic","remap_period":960,"fetch_latency":3,"backend":"hybrid","backend_params":"fast_slots=8","seed":5,"max_ticks":1048576},"checkpoint_every_ticks":4096,"timeout_seconds":30}`},
		{"sweep", Spec{Kind: KindSweep, Name: "pinned-sweep", Workload: &wl,
			Points:  []Point{{Name: "p0", Config: cfg}, {Config: ConfigSpec{HBMSlots: 8}}},
			NoShard: true, Workers: 2, TimeoutSeconds: 1.5},
			`{"kind":"sweep","name":"pinned-sweep","workload":{"gen":"spgemm","cores":4,"size":48,"page_bytes":128,"seed":9},"points":[{"name":"p0","config":{"hbm_slots":96,"channels":2,"arbiter":"priority","replacement":"clock","mapping":"direct","permuter":"dynamic","remap_period":960,"fetch_latency":3,"backend":"hybrid","backend_params":"fast_slots=8","seed":5,"max_ticks":1048576}},{"config":{"hbm_slots":8}}],"no_shard":true,"workers":2,"timeout_seconds":1.5}`},
	} {
		got, err := json.Marshal(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s spec encodes as\n%s\npinned\n%s", tc.name, got, tc.want)
		}
		var back Spec
		if err := json.Unmarshal([]byte(tc.want), &back); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(back, tc.spec) {
			t.Errorf("%s spec decodes to %+v, want %+v", tc.name, back, tc.spec)
		}
	}
}
