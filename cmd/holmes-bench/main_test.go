package main

import (
	"strings"
	"testing"
)

// runCLI captures run's exit code and both streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestZeroParallelFails(t *testing.T) {
	code, _, stderr := runCLI("-parallel", "0", "fig3")
	if code == 0 {
		t.Fatal("run accepted -parallel 0")
	}
	if !strings.Contains(stderr, "-parallel 0 must be at least 1") {
		t.Fatalf("stderr %q does not explain the bad flag", stderr)
	}
}

func TestUnknownFlagFails(t *testing.T) {
	code, _, stderr := runCLI("-figures", "3")
	if code != 2 {
		t.Fatalf("unknown flag exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "figures") {
		t.Fatalf("stderr %q does not name the bad flag", stderr)
	}
}

func TestNoArgsPrintsUsage(t *testing.T) {
	code, _, stderr := runCLI()
	if code != 2 {
		t.Fatalf("no-args run exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "holmes-bench regenerates") {
		t.Fatalf("stderr is not the usage text: %q", stderr)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	code, _, stderr := runCLI("fig99")
	if code != 2 {
		t.Fatalf("unknown experiment exited %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown experiment "fig99"`) {
		t.Fatalf("stderr %q does not name the experiment", stderr)
	}
}

func TestListExperiments(t *testing.T) {
	code, stdout, stderr := runCLI("list")
	if code != 0 {
		t.Fatalf("list exited %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"fig3", "chaos", "cluster"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("list output missing %q:\n%s", want, stdout)
		}
	}
}
