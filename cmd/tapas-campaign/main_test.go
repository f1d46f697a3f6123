package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func examplePath(name string) string {
	return filepath.Join("..", "..", "examples", "scenarios", name)
}

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"axis params:", "workload.saas_fraction", "metrics:", "norm_peak_power"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	cases := map[string]struct {
		args     []string
		wantCode int
		wantErr  string
	}{
		"no specs":       {nil, 2, "no spec files"},
		"unknown format": {[]string{"-format", "yaml", "x.json"}, 2, `unknown -format "yaml"`},
		"unknown flag":   {[]string{"-bogus"}, 2, "flag provided but not defined"},
		"missing spec":   {[]string{"-validate", "definitely-missing.json"}, 1, "definitely-missing.json"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var out, errOut strings.Builder
			code := run(tc.args, &out, &errOut)
			if code != tc.wantCode {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.wantCode, errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.wantErr) {
				t.Errorf("stderr %q does not contain %q", errOut.String(), tc.wantErr)
			}
		})
	}
}

func TestRunValidateExamples(t *testing.T) {
	specs, err := filepath.Glob(examplePath("*.json"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no example specs found: %v", err)
	}
	var out, errOut strings.Builder
	if code := run(append([]string{"-validate"}, specs...), &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if got := strings.Count(errOut.String(), ": ok ("); got != len(specs) {
		t.Errorf("validated %d of %d specs:\n%s", got, len(specs), errOut.String())
	}
	if out.String() != "" {
		t.Errorf("-validate wrote to stdout: %q", out.String())
	}
}

func TestRunValidateRejectsBadSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"name": "bad", "bogus_field": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-validate", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "bogus_field") {
		t.Errorf("stderr %q does not name the unknown field", errOut.String())
	}
}

func TestRunQuickCampaign(t *testing.T) {
	spec := `{
	  "name": "smoke",
	  "layout": {"preset": "small"},
	  "duration": "5m",
	  "policies": ["baseline"],
	  "report": {"format": "csv"}
	}`
	path := filepath.Join(t.TempDir(), "smoke.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-parallel", "2", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), "spec,policy,") {
		t.Errorf("CSV report missing header:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "1 runs (1 scenarios) in") {
		t.Errorf("stderr missing timing line: %q", errOut.String())
	}
}

// TestRunProgressAndCacheFlags runs one spec twice in a single invocation
// with -progress: progress lines stream to stderr, stdout carries both
// reports back to back, and the shared compile cache serves the repeat.
func TestRunProgressAndCacheFlags(t *testing.T) {
	spec := `{
	  "name": "smoke",
	  "layout": {"preset": "small"},
	  "duration": "5m",
	  "policies": ["baseline"],
	  "report": {"format": "csv"}
	}`
	path := filepath.Join(t.TempDir(), "smoke.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-progress", path, path}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if got := strings.Count(out.String(), "spec,policy,"); got != 2 {
		t.Errorf("stdout has %d CSV reports, want 2:\n%s", got, out.String())
	}
	if !strings.Contains(errOut.String(), "1/1 runs") {
		t.Errorf("stderr missing progress lines: %q", errOut.String())
	}
	if got := strings.Count(errOut.String(), "smoke: 1 points"); got != 2 {
		t.Errorf("stderr has %d campaign headers, want 2: %q", got, errOut.String())
	}
}
