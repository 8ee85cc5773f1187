package experiments

import "fmt"

// Status is a verdict's outcome.
type Status string

// The three outcomes. SKIPPED means the run saw too little load for its
// numbers to be evidence either way.
const (
	Pass    Status = "PASS"
	Fail    Status = "FAIL"
	Skipped Status = "SKIPPED"
)

// Verdict is what a gated experiment (chaos, traffic, storm, scale)
// concluded about its claim.
type Verdict struct {
	Status Status
	// Reason names the clause that failed, or why the run was skipped;
	// empty on PASS.
	Reason string
}

// String prints the verdict as the rendered reports do: the status, then
// the reason in parentheses.
func (v Verdict) String() string {
	if v.Reason == "" {
		return string(v.Status)
	}
	return fmt.Sprintf("%s (%s)", v.Status, v.Reason)
}
