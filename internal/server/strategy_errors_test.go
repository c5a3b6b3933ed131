package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"xhybrid"
	"xhybrid/internal/core"
	"xhybrid/internal/jobs"
)

// TestUnknownStrategy400Bodies locks the API contract for strategy typos:
// every submitting endpoint — synchronous /v1/partition, async /v1/jobs,
// and /v1/flow — answers 400 with a JSON error body that enumerates the
// full registry vocabulary, so a client can correct itself from the
// response alone. The removed "xcode-hybrid" planner gets the same answer.
func TestUnknownStrategy400Bodies(t *testing.T) {
	s, _ := newJobsServer(t, jobs.Config{})

	type testCase struct {
		name   string
		target string
		body   []byte
	}
	var cases []testCase
	for _, bad := range []struct{ suffix, name string }{
		{"", "simulated-annealing"},
		{"_xcode-hybrid", "xcode-hybrid"},
	} {
		badFlow, err := json.Marshal(xhybrid.FlowSpec{
			Cells: 256, Chains: 16, Patterns: 64, MISRSize: 8, Q: 2,
			Strategy: bad.name,
		})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			testCase{"partition" + bad.suffix, "/v1/partition?m=10&q=2&strategy=" + bad.name, fixtureBody(t)},
			testCase{"jobs" + bad.suffix, "/v1/jobs?m=10&q=2&strategy=" + bad.name, fixtureBody(t)},
			testCase{"flow" + bad.suffix, "/v1/flow", badFlow})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, http.MethodPost, tc.target, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", w.Code, w.Body.String())
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatalf("400 body is not the JSON error envelope: %v (%s)", err, w.Body.String())
			}
			if !strings.Contains(body.Error, "unknown strategy") {
				t.Errorf("error %q does not say unknown strategy", body.Error)
			}
			for _, name := range core.StrategyVocabulary() {
				if !strings.Contains(body.Error, name) {
					t.Errorf("error %q does not enumerate %q", body.Error, name)
				}
			}
		})
	}
}

// TestStrategyAliasAccepted pins the compatibility half of the vocabulary
// contract: the legacy "greedy" spelling still submits fine on every
// surface and is canonicalized, not echoed.
func TestStrategyAliasAccepted(t *testing.T) {
	s, _ := newJobsServer(t, jobs.Config{})
	w := do(t, s, http.MethodPost, "/v1/jobs?m=10&q=2&strategy=greedy", fixtureBody(t))
	if w.Code != http.StatusAccepted {
		t.Fatalf("alias submit status %d: %s", w.Code, w.Body.String())
	}
	env := decodeJob(t, w)
	final := pollDone(t, s, env.ID)
	if final.Options.Strategy != "greedy-cost" {
		t.Fatalf("spooled strategy %q, want canonical greedy-cost", final.Options.Strategy)
	}
}
