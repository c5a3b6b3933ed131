package main

import (
	"strings"
	"testing"

	"xhybrid"
)

// TestVerifyCommand: verify runs the circuit flow and passes on the
// default 16-chain circuit with the flow's own verdict, and it honors
// -strategy — an unknown name fails with the enumerating error instead of
// being ignored.
func TestVerifyCommand(t *testing.T) {
	out, errOut, code := runMain(t, "verify")
	if code != -1 {
		t.Fatalf("verify exited %d: %s", code, errOut)
	}
	for _, want := range []string{
		"circuit: 554 gates, 128 scan cells; 96 patterns, 456 X's",
		"program: 4 partitions (paper strategy)",
		"replay: masked 241 X's (0 observable destroyed), 215 residual X's into the MISR",
		"canceling: 17 halts, 51 X-free signatures (0 deficits), 816 control bits",
		"PASS: no observable capture was masked",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("verify output lacks %q:\n%s", want, out)
		}
	}

	out, errOut, code = runMain(t, "verify", "-strategy", "nope")
	if code != 1 {
		t.Fatalf("verify -strategy nope: exit code %d, want 1 (stdout %q)", code, out)
	}
	if strings.Contains(out, "PASS") {
		t.Errorf("verify -strategy nope printed PASS:\n%s", out)
	}
	if !strings.Contains(errOut, `unknown strategy "nope"`) {
		t.Errorf("stderr %q does not name the unknown strategy", errOut)
	}
	for _, name := range xhybrid.Strategies() {
		if !strings.Contains(errOut, name) {
			t.Errorf("stderr %q does not enumerate %q", errOut, name)
		}
	}
}
