package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process, as
// the real binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// benchSpec is the metric part of BENCHMARK.json at the checkout root.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// testPins pins every test-scale workload at the campaign seed --seed 1
// maps to, through the same oracle check the full-scale pins went through.
func testPins(t *testing.T) map[string]map[string]string {
	t.Helper()
	ws, err := workloads("test")
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]map[string]string{}
	for _, w := range ws {
		seed := w.campaignSeed(1)
		h, err := pinHash(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		pins[w.name] = map[string]string{strconv.FormatInt(seed, 10): h}
	}
	return pins
}

func writePins(t *testing.T, pins map[string]map[string]string) string {
	t.Helper()
	b, err := json.Marshal(pins)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pins.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runBench runs one benchmark invocation at test scale and decodes its
// last stdout line.
func runBench(t *testing.T, workload, pins, trace string) (int, result) {
	t.Helper()
	var out bytes.Buffer
	code := run([]string{
		"--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", trace,
		"--scale", "test", "--pins", pins, "--work", t.TempDir(),
	}, &out)
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("%s trace %s: exit %d, last line %q: %v", workload, trace, code, lines[len(lines)-1], err)
	}
	return code, res
}

// TestEveryMetricEmitted runs every workload at test scale — those
// BENCHMARK.json lists and stress-mix, which is run by hand — untraced and
// traced, and checks each prints exactly BENCHMARK.json's metrics with their
// units and passes the correctness gate.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadBenchSpec(t)
	pins := writePins(t, testPins(t))
	ws, err := workloads("test")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := ws[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json lists workload %s, which the benchmark does not have", w.Name)
		}
	}
	for _, name := range workloadNames(ws) {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			code, res := runBench(t, name, pins, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, correct %v, %d/%d failed", name, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
			if trace == "0" {
				for _, m := range spec.EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestWrongPinFails checks a report that does not match its pinned hash
// fails the run: exit code 1, correct=false, and a traced run's error_rate
// counts the failure.
func TestWrongPinFails(t *testing.T) {
	pins := testPins(t)
	for _, w := range []string{"xqvr-mult12", "fabric-lfsr72"} {
		for seed := range pins[w] {
			pins[w][seed] = "0000000000000000000000000000000000000000000000000000000000000000"
		}
	}
	path := writePins(t, pins)
	for _, w := range []string{"xqvr-mult12", "fabric-lfsr72"} {
		code, res := runBench(t, w, path, "0")
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong pin: exit %d, correct %v, failed %d; want a failed run", w, code, res.Correct, res.Failed)
		}
	}
	code, res := runBench(t, "xqvr-mult12", path, "1")
	if code == 0 || res.Metrics["error_rate"].Value <= 0 {
		t.Errorf("traced run with a wrong pin: exit %d, error_rate %+v; want a failed run with error_rate > 0", code, res.Metrics["error_rate"])
	}
}
