package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xhybrid"
)

// runMain runs main with args (after the program name) and returns what it
// wrote to stdout and stderr. A fatal exit through the stubbed osExit is
// recovered; its code is reported, -1 when main returned normally.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exitCode := stubExit(t)
	oldArgs, oldOut, oldErr := os.Args, os.Stdout, os.Stderr
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Args = append([]string{"xhybrid"}, args...)
	os.Stdout, os.Stderr = outW, errW
	var outBuf, errBuf bytes.Buffer
	done := make(chan struct{}, 2)
	go func() { io.Copy(&outBuf, outR); done <- struct{}{} }()
	go func() { io.Copy(&errBuf, errR); done <- struct{}{} }()
	func() {
		defer func() {
			if r := recover(); r != nil && r != "osExit" {
				panic(r)
			}
		}()
		main()
	}()
	os.Args, os.Stdout, os.Stderr = oldArgs, oldOut, oldErr
	outW.Close()
	errW.Close()
	<-done
	<-done
	return outBuf.String(), errBuf.String(), *exitCode
}

// paperExampleFile writes the paper's Figure 4 X-map as JSON and returns
// its path.
func paperExampleFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fig4.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := xhybrid.PaperExample().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReportHeaderCanonical: the report header names the strategy the run
// actually used (the canonical spelling, never the legacy alias) and the
// engine's m/q defaults.
func TestReportHeaderCanonical(t *testing.T) {
	out, errOut, code := runMain(t, "report", "-in", paperExampleFile(t), "-strategy", "greedy")
	if code != -1 {
		t.Fatalf("report exited %d: %s", code, errOut)
	}
	if want := "## Partitioning (greedy-cost strategy, m=32 q=7)"; !strings.Contains(out, want) {
		t.Fatalf("report output lacks %q:\n%s", want, out)
	}
}

// TestRemovedStrategyRejected: a strategy name that is not in the registry
// (here the removed xcode-hybrid) fails partition and report with the
// enumerating unknown-strategy error and exit code 1.
func TestRemovedStrategyRejected(t *testing.T) {
	in := paperExampleFile(t)
	for _, cmd := range []string{"partition", "report"} {
		out, errOut, code := runMain(t, cmd, "-in", in, "-strategy", "xcode-hybrid")
		if code != 1 {
			t.Fatalf("%s: exit code %d, want 1 (stdout %q)", cmd, code, out)
		}
		if !strings.Contains(errOut, `unknown strategy "xcode-hybrid"`) {
			t.Errorf("%s: stderr %q does not name the unknown strategy", cmd, errOut)
		}
		for _, name := range xhybrid.Strategies() {
			if !strings.Contains(errOut, name) {
				t.Errorf("%s: stderr %q does not enumerate %q", cmd, errOut, name)
			}
		}
	}
}
