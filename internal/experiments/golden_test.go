package experiments

import (
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/outcomes.golden")

// goldenPath pins the headline and every table of every registered
// experiment at tiny() options, so a refactor of the suite shows any
// table it changes. TestEveryExperimentRunsEndToEnd holds each outcome
// to its section; regenerate with -update only when a change to the
// printed results is intended.
const goldenPath = "testdata/outcomes.golden"

// goldenSection renders one Outcome's headline and tables in the form
// outcomes.golden stores them.
func goldenSection(t *testing.T, out *Outcome) string {
	t.Helper()
	return "=== " + out.ID + "\nheadline: " + out.Headline + "\n" + tablesCSV(t, out)
}

// tablesCSV renders an Outcome's tables, each as its title and its CSV.
func tablesCSV(t *testing.T, out *Outcome) string {
	t.Helper()
	var b strings.Builder
	for _, tbl := range out.Tables {
		b.WriteString("--- " + tbl.Title + "\n")
		if err := tbl.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// readGolden returns outcomes.golden's per-experiment sections, each
// without its trailing newline. Under -update a missing file reads as
// empty.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if *update && errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	sections := map[string]string{}
	for _, s := range strings.Split("\n"+string(data), "\n=== ")[1:] {
		id, _, _ := strings.Cut(s, "\n")
		sections[id] = "=== " + strings.TrimSuffix(s, "\n")
	}
	return sections
}

// goldenTables returns the tables of a golden section: all but its id
// and headline lines.
func goldenTables(section string) string {
	parts := strings.SplitN(section, "\n", 3)
	if len(parts) < 3 {
		return ""
	}
	return parts[2]
}

// writeGolden rewrites outcomes.golden from one section per registered
// experiment, in registry order.
func writeGolden(t *testing.T, sections map[string]string) {
	t.Helper()
	ids := IDs()
	if len(sections) != len(ids) {
		t.Fatalf("-update needs every experiment: %d of %d ran", len(sections), len(ids))
	}
	var b strings.Builder
	for _, id := range ids {
		b.WriteString(sections[id])
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
