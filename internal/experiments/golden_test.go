package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the golden report files. The committed goldens were
// produced before the compiled-scenario refactor, so this test proves the
// compiled path is byte-identical to the original per-run generation.
var updateGolden = flag.Bool("update", false, "rewrite golden report files")

// goldenIDs are the experiments pinned byte-for-byte: the multi-run grids
// that share compiled scenarios across runs, plus the week-scale single runs
// whose tick kernel was fused.
var goldenIDs = []string{"fig10", "fig11", "fig18", "fig19", "fig20", "fig21", "table2"}

func renderReport(t *testing.T, id string, p Params) string {
	t.Helper()
	spec, ok := Lookup(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	rep, err := spec.Run(p)
	if err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	var sb strings.Builder
	if _, err := rep.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestGoldenReports pins the quick-scale report of each refactored experiment
// byte-for-byte against testdata generated by the pre-refactor code.
func TestGoldenReports(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && (id == "fig19" || id == "fig20" || id == "table2") {
				t.Skip("long experiment skipped in -short")
			}
			got := renderReport(t, id, QuickParams())
			path := filepath.Join("testdata", "golden", id+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s report deviates from golden output:\n--- got ---\n%s--- want ---\n%s", id, got, want)
			}
		})
	}
}
