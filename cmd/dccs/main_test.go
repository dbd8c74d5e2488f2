package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasets"
)

// TestMain lets the test binary stand in for the real dccs: when
// re-exec'd with the env marker set, it runs main() instead of the test
// suite, so the tests below exercise the actual CLI entry (flag parsing,
// exit codes, stderr) rather than a re-implementation.
func TestMain(m *testing.M) {
	if os.Getenv("DCCS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the CLI with args and returns its stderr and exit code.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DCCS_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return stderr.String(), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running %v: %v", args, err)
	}
	return stderr.String(), ee.ExitCode()
}

// TestErrorsCarryOnePrefix: rejected queries and a missing graph file
// exit 1 with one stderr line carrying the "dccs: " prefix once —
// library errors carry it already, OS errors get it.
func TestErrorsCarryOnePrefix(t *testing.T) {
	g, _ := datasets.FourLayerExample()
	path := filepath.Join(t.TempDir(), "g.mlg")
	if err := g.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "absent.mlg")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-d", "0", "-s", "2", "-k", "5", path}, "dccs: degree threshold d = 0, want ≥ 1\n"},
		{[]string{"-k", "0", path}, "dccs: result count k = 0, want ≥ 1\n"},
		{[]string{"-algo", "foo", path}, "dccs: unknown algorithm \"foo\" (want auto, greedy, bu, td, exact)\n"},
		{[]string{missing}, "dccs: open " + missing + ": no such file or directory\n"},
	}
	for _, c := range cases {
		stderr, code := runMain(t, c.args...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1 (stderr %q)", c.args, code, stderr)
		}
		if stderr != c.want {
			t.Errorf("%v: stderr %q, want %q", c.args, stderr, c.want)
		}
	}
}
