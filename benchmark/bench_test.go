package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary as the
// stdin oracle whose spawn cost every run records.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == stdinOracleArg {
		os.Exit(runStdinOracle(os.Args[2], os.Stdin))
	}
	os.Exit(m.Run())
}

// smokeConfig is the shortest run of a workload that still exercises every
// journey and check.
func smokeConfig(t *testing.T, workload string, trace bool) Config {
	c := defaultConfig()
	c.Workload = workload
	c.Trace = trace
	c.Seconds = 0.3
	c.Setups = 1
	c.WarmBatches = 4
	c.Root = ".."
	c.WorkDir = t.TempDir()
	if trace {
		c.TraceOut = filepath.Join(c.WorkDir, "trace.ndjson")
	}
	return c
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T, section string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func run(t *testing.T, c Config) *Result {
	t.Helper()
	res, err := Run(context.Background(), c)
	if err != nil {
		t.Fatalf("%s: %v", c.Workload, err)
	}
	return res
}

// TestSmoke runs every workload at minimal length, untraced and traced:
// each must be correct, with error rate 0, and emit exactly the metrics
// BENCHMARK.json declares for its mode, each with its declared unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots glade-serve and learns")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			section := "end_to_end"
			if trace {
				section = "per_layer"
			}
			t.Run(w.name+"/"+section, func(t *testing.T) {
				c := smokeConfig(t, w.name, trace)
				res := run(t, c)
				if !res.Correct || res.Failed != 0 || res.Record["error_rate"] != 0.0 {
					t.Fatalf("correct=%v failed=%d/%d errors=%v", res.Correct, res.Failed, res.Attempted, res.Errors)
				}
				want := declared(t, section)
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not declared in BENCHMARK.json %s", name, section)
					}
				}
				if !trace && res.Metrics["success_rate"].Value != 1 {
					t.Errorf("success_rate = %v", res.Metrics["success_rate"].Value)
				}
				if trace {
					if _, err := os.Stat(c.TraceOut); err != nil {
						t.Errorf("trace not written: %v", err)
					}
				}
			})
		}
	}
}

// TestTamperedGoldenFails proves a fetched grammar that differs from the
// golden is caught: learn-xml against a tampered xml golden must count
// failures.
func TestTamperedGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("boots glade-serve and learns")
	}
	golden, err := os.ReadFile(filepath.Join("..", "internal", "core", "testdata", "golden_xml_w1.grammar"))
	if err != nil {
		t.Fatal(err)
	}
	tampered := filepath.Join(t.TempDir(), "tampered.grammar")
	// One terminal changed: still a well-formed grammar, no longer what
	// the learner synthesizes.
	text := strings.Replace(string(golden), `"<a>"`, `"<b>"`, 1)
	if text == string(golden) {
		t.Fatal("tampering left the golden unchanged")
	}
	if err := os.WriteFile(tampered, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	c := smokeConfig(t, "learn-xml", false)
	c.XMLGolden = tampered
	res := run(t, c)
	if res.Correct || res.Failed == 0 {
		t.Errorf("tampered golden not caught: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestWrongVerdictFails proves a check response that disagrees with the
// reference verdicts is counted as a failure.
func TestWrongVerdictFails(t *testing.T) {
	if testing.Short() {
		t.Skip("boots glade-serve and learns")
	}
	c := smokeConfig(t, "check-sed", false)
	c.FlipVerdict = 0
	res := run(t, c)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("flipped verdict not caught: correct=%v failed=%d/%d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestStdinOracle pins the exec oracle's exit-status contract.
func TestStdinOracle(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
	}{{"a(b|c)*d", 0}, {"a(b", 1}} {
		if got := runStdinOracle("regexp", strings.NewReader(tc.in)); got != tc.want {
			t.Errorf("stdin oracle on %q: exit %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := runStdinOracle("no-such-builtin", strings.NewReader("")); got != 2 {
		t.Errorf("unknown builtin: exit %d, want 2", got)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{10, 0.5}, {100, 0.9}, {1000, 0.99}, {50000, 0.99}} {
		if got := tailQuantile(tc.n); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}
