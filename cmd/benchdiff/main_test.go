package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeArtifact writes a BENCH_scale.json carrying rows and returns its
// path.
func writeArtifact(t *testing.T, rows ...row) string {
	t.Helper()
	blob, err := json.Marshal(map[string]any{"mode": "quick", "metrics": rows})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_scale.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func lower(dataset, name string, v float64) row {
	return row{Dataset: dataset, Name: name, Unit: "ms", Better: "lower", Value: v}
}

func higher(dataset, name string, v float64) row {
	return row{Dataset: dataset, Name: name, Unit: "ratio", Better: "higher", Value: v}
}

// runDiff runs the comparison and returns its exit code and stdout.
func runDiff(t *testing.T, oldPath, newPath string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(oldPath, newPath, &stdout, &stderr)
	if code == 2 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, stdout.String()
}

func TestLowerRowGatedAtFactorAboveFloor(t *testing.T) {
	old := writeArtifact(t, lower("gq-base", "dccs_p50_ms", 10))
	if code, out := runDiff(t, old, writeArtifact(t, lower("gq-base", "dccs_p50_ms", 25))); code != 1 {
		t.Fatalf("10 ms -> 25 ms: exit %d, want 1\n%s", code, out)
	}
	if code, out := runDiff(t, old, writeArtifact(t, lower("gq-base", "dccs_p50_ms", 19))); code != 0 {
		t.Fatalf("10 ms -> 19 ms: exit %d, want 0\n%s", code, out)
	}
}

func TestSubFloorJitterPasses(t *testing.T) {
	// 3 ms -> 7 ms is 2.3x, but clamped to the 5 ms floor it is 1.4x.
	old := writeArtifact(t, lower("gq-base", "dccs_p50_ms", 3))
	if code, out := runDiff(t, old, writeArtifact(t, lower("gq-base", "dccs_p50_ms", 7))); code != 0 {
		t.Fatalf("3 ms -> 7 ms: exit %d, want 0\n%s", code, out)
	}
	// A blow-up from a sub-floor baseline still trips the gate.
	if code, out := runDiff(t, old, writeArtifact(t, lower("gq-base", "dccs_p50_ms", 500))); code != 1 {
		t.Fatalf("3 ms -> 500 ms: exit %d, want 1\n%s", code, out)
	}
}

func TestHigherRowGatedAtFactorSquared(t *testing.T) {
	old := writeArtifact(t, higher("gq-base", "p50_speedup", 100))
	if code, out := runDiff(t, old, writeArtifact(t, higher("gq-base", "p50_speedup", 30))); code != 0 {
		t.Fatalf("speedup 100 -> 30: exit %d, want 0 (within 4x)\n%s", code, out)
	}
	if code, out := runDiff(t, old, writeArtifact(t, higher("gq-base", "p50_speedup", 20))); code != 1 {
		t.Fatalf("speedup 100 -> 20: exit %d, want 1 (beyond 4x)\n%s", code, out)
	}
}

func TestRowMissingOnOneSideIsSkipped(t *testing.T) {
	old := writeArtifact(t, lower("gq-base", "dccs_p50_ms", 10), lower("gq-gone", "dccs_p50_ms", 10))
	fresh := writeArtifact(t, lower("gq-base", "dccs_p50_ms", 11), lower("gq-new", "dccs_p50_ms", 1000))
	code, out := runDiff(t, old, fresh)
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	for _, want := range []string{"skip: gq-new dccs_p50_ms has no baseline", "skip: gq-gone dccs_p50_ms is missing"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestOldSchemaAndMissingBaselinePass(t *testing.T) {
	fresh := writeArtifact(t, lower("gq-base", "dccs_p50_ms", 10))

	// An artifact written before rows carried their direction: only the
	// per-dataset map, with values that would regress under any rule.
	oldSchema := filepath.Join(t.TempDir(), "BENCH_scale.json")
	blob := `{"mode":"quick","datasets":{"gq-base":{"dccs_p50_ms":0.001,"p50_speedup":1e9,"budget_ms":1}}}`
	if err := os.WriteFile(oldSchema, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := runDiff(t, oldSchema, fresh); code != 0 || !strings.Contains(out, "no metric rows") {
		t.Fatalf("old-schema baseline: exit %d, want 0 with a note\n%s", code, out)
	}

	missing := filepath.Join(t.TempDir(), "absent", "BENCH_scale.json")
	if code, out := runDiff(t, missing, fresh); code != 0 || !strings.Contains(out, "no baseline") {
		t.Fatalf("missing baseline: exit %d, want 0 with a note\n%s", code, out)
	}
}

func TestSelfCompare(t *testing.T) {
	path := writeArtifact(t,
		lower("gq-base", "dccs_p50_ms", 3), lower("gq-base", "mimag_p99_ms", 2000),
		higher("gq-base", "p50_speedup", 600))
	if code, out := runDiff(t, path, path); code != 0 || !strings.Contains(out, "no regressions") {
		t.Fatalf("self-compare: exit %d, want 0\n%s", code, out)
	}
}

func TestRowWithoutDirectionIsAnError(t *testing.T) {
	r := lower("gq-base", "dccs_p50_ms", 10)
	r.Better = ""
	path := writeArtifact(t, r)
	if code, _ := runDiff(t, path, path); code != 2 {
		t.Fatalf("row without a direction: exit %d, want 2", code)
	}
}
