package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const quickSpec = `{
  "name": "quick",
  "layout": {"preset": "small"},
  "duration": "5m",
  "policies": ["baseline"]
}`

func writeSpec(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunErrors(t *testing.T) {
	axesSpec := filepath.Join("..", "..", "examples", "scenarios", "heatwave-sweep.json")
	cases := map[string]struct {
		args     []string
		wantCode int
		wantErr  string
	}{
		"spec flag conflict": {
			[]string{"-spec", "x.json", "-hours", "2"}, 2, "-hours conflicts with -spec"},
		"spec seed conflict": {
			[]string{"-spec", "x.json", "-seed", "7"}, 2, "-seed conflicts with -spec"},
		"missing spec": {
			[]string{"-spec", "definitely-missing.json"}, 1, "definitely-missing.json"},
		"unknown failure": {
			[]string{"-failure", "earthquake"}, 2, `unknown failure "earthquake"`},
		"unknown policy": {
			[]string{"-policy", "psychic"}, 2, "unknown policy"},
		"unknown flag": {
			[]string{"-bogus"}, 2, "flag provided but not defined"},
		"spec with axes": {
			[]string{"-spec", axesSpec}, 2, "sweeps axes"},
		"shorter than one tick": {
			[]string{"-hours", "0.01"}, 1, "shorter than one tick"},
		"NaN hours": {
			[]string{"-hours", "NaN"}, 2, "-hours NaN is not a positive duration"},
		"hours past the duration range": {
			[]string{"-hours", "1e300"}, 2, "-hours 1e+300 is not a positive duration"},
		"zero hours": {
			[]string{"-hours", "0"}, 2, "-hours 0 is not a positive duration"},
		"negative hours": {
			[]string{"-hours", "-2"}, 2, "-hours -2 is not a positive duration"},
		"NaN oversubscription": {
			[]string{"-oversub", "NaN", "-hours", "0.05"}, 2, "-oversub NaN is not a finite ratio"},
		"infinite oversubscription": {
			[]string{"-oversub", "+Inf", "-hours", "0.05"}, 2, "-oversub +Inf is not a finite ratio"},
		"negative oversubscription": {
			[]string{"-oversub", "-0.1", "-hours", "0.05"}, 2, "-oversub -0.1 is not a finite ratio"},
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

func TestRunFlagScenario(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-policy", "baseline", "-hours", "0.05"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"policy            Baseline", "max GPU temp", "IaaS perf loss"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunSpecScenario(t *testing.T) {
	path := writeSpec(t, quickSpec)
	var out, errOut strings.Builder
	code := run([]string{"-spec", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "policy            Baseline") {
		t.Errorf("stdout missing baseline summary:\n%s", out.String())
	}
	// -policy is the one deliberate override on top of -spec.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-spec", path, "-policy", "tapas"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if strings.Contains(out.String(), "Baseline") {
		t.Errorf("-policy override did not replace the spec's policies:\n%s", out.String())
	}
}
