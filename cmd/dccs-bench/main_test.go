package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the real dccs-bench: when
// re-exec'd with the env marker set, it runs main() instead of the test
// suite, so the tests below exercise the actual CLI entry (flag parsing,
// exit codes, stderr) rather than a re-implementation.
func TestMain(m *testing.M) {
	if os.Getenv("DCCS_BENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DCCS_BENCH_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running %v: %v", args, err)
	}
	return string(out), ee.ExitCode()
}

// TestModeFlagsAreExclusive: setting both mode flags is a usage error
// (exit 2) naming the conflict, in either order.
func TestModeFlagsAreExclusive(t *testing.T) {
	cases := [][]string{
		{"-parallel", "-gauntlet"},
		{"-gauntlet", "-parallel", "-quick"}, // -quick is a modifier, not a mode
	}
	for _, args := range cases {
		out, code := runMain(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (output: %q)", args, code, out)
		}
		if !strings.Contains(out, "at most one of") {
			t.Errorf("%v: missing usage message, got %q", args, out)
		}
	}
}

// TestInvalidFigRejected keeps the pre-existing -fig validation intact.
func TestInvalidFigRejected(t *testing.T) {
	out, code := runMain(t, "-fig", "bogus")
	if code != 2 {
		t.Fatalf("-fig bogus: exit %d, want 2 (output: %q)", code, out)
	}
}
