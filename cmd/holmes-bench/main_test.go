package main

import (
	"strings"
	"testing"

	"github.com/holmes-colocation/holmes/internal/experiments"
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

// verdictResult is a hand-built gated result.
type verdictResult experiments.Verdict

func (r verdictResult) Render() string               { return "verdict: " + r.Verdict().String() + "\n" }
func (r verdictResult) Verdict() experiments.Verdict { return experiments.Verdict(r) }

// TestVerdictDrivesExitStatus substitutes hand-built results for the
// experiments: every requested experiment prints, and the exit status is
// 1 exactly when one of them did not PASS.
func TestVerdictDrivesExitStatus(t *testing.T) {
	defer func(prev func(experiments.Options, []string) ([]experiments.Result, error)) {
		runResults = prev
	}(runResults)
	for _, tc := range []struct {
		name     string
		verdicts []experiments.Verdict
		code     int
	}{
		{"all pass", []experiments.Verdict{{Status: experiments.Pass}, {Status: experiments.Pass}}, 0},
		{"one fail", []experiments.Verdict{{Status: experiments.Pass}, {Status: experiments.Fail, Reason: "no storm provoked"}}, 1},
		{"one skipped", []experiments.Verdict{{Status: experiments.Skipped, Reason: "only 12 arrivals"}, {Status: experiments.Pass}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runResults = func(_ experiments.Options, ids []string) ([]experiments.Result, error) {
				out := make([]experiments.Result, len(ids))
				for i := range ids {
					out[i] = verdictResult(tc.verdicts[i])
				}
				return out, nil
			}
			code, stdout, stderr := runCLI("traffic", "storm")
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr: %s", code, tc.code, stderr)
			}
			for i, id := range []string{"traffic", "storm"} {
				if want := "verdict: " + tc.verdicts[i].String(); !strings.Contains(stdout, want) {
					t.Errorf("%s output missing %q:\n%s", id, want, stdout)
				}
				failed := tc.verdicts[i].Status != experiments.Pass
				if reported := strings.Contains(stderr, id+" verdict"); reported != failed {
					t.Errorf("%s: reported on stderr = %v, want %v; stderr: %q", id, reported, failed, stderr)
				}
			}
		})
	}
}
