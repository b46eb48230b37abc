package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the code must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// run executes the command in-process and decodes its last output line.
func run(t *testing.T, args ...string) (int, map[string]json.RawMessage) {
	t.Helper()
	var out, errb bytes.Buffer
	code := execute(append(args, "--dir", t.TempDir()), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v (stderr: %s)", lines[len(lines)-1], err, errb.String())
	}
	if code != 0 {
		t.Logf("stderr: %s", errb.String())
	}
	return code, last
}

func metricNames(t *testing.T, last map[string]json.RawMessage) []string {
	t.Helper()
	var ms map[string]value
	if err := json.Unmarshal(last["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range ms {
		names = append(names, n)
	}
	return names
}

func sameSet(a []string, b []metric) bool {
	want := map[string]bool{}
	for _, m := range b {
		want[m.Name] = true
	}
	if len(a) != len(want) {
		return false
	}
	for _, n := range a {
		if !want[n] {
			return false
		}
	}
	return true
}

func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	if !reflect.DeepEqual(s.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd:\n%v\n%v", s.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(s.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer:\n%v\n%v", s.PerLayer, perLayer)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.Name || s.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q %q", i, s.Workloads[i], w.Name, w.Why)
		}
	}
}

// TestSmoke runs every workload's untraced pass on one dataset, and its
// traced pass through the command, and checks the metrics against
// BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every workload")
	}
	s := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.Name+"/untraced", func(t *testing.T) {
			o := newOutcome()
			measure(w, inputSeeds(3, 1), 0, t.TempDir(), o)
			o.finish(s.EndToEnd)
			if o.failed != 0 {
				t.Fatalf("failures: %v", o.failures)
			}
			var names []string
			for n := range o.values {
				names = append(names, n)
			}
			if !sameSet(names, s.EndToEnd) {
				t.Errorf("metrics %v do not match BENCHMARK.json", names)
			}
		})
		t.Run(w.Name+"/traced", func(t *testing.T) {
			code, last := run(t, "--workload", w.Name, "--seed", "3", "--trace", "1")
			if code != 0 || string(last["correct"]) != "true" || string(last["failed"]) != "0" {
				t.Fatalf("exit %d, result %s %s", code, last["correct"], last["failed"])
			}
			if len(last) != 4 {
				t.Errorf("result has keys %v, want correct/attempted/failed/metrics", last)
			}
			if names := metricNames(t, last); !sameSet(names, s.PerLayer) {
				t.Errorf("emitted metrics %v do not match BENCHMARK.json", names)
			}
		})
	}
}

func TestTamperedDigestFails(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a workload")
	}
	n := 0
	tamper = func(d string) string { n++; return fmt.Sprintf("%s-%d", d, n) }
	defer func() { tamper = nil }()
	code, last := run(t, "--workload", "avazu-tcp2", "--trace", "1")
	if code == 0 || string(last["correct"]) != "false" || string(last["failed"]) == "0" {
		t.Fatalf("tampered digests: exit %d, correct %s, failed %s", code, last["correct"], last["failed"])
	}
}

func TestMissingMetricFails(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a workload")
	}
	drop = "nn.gflops"
	defer func() { drop = "" }()
	code, last := run(t, "--workload", "avazu-tcp2", "--trace", "1")
	if code == 0 || string(last["correct"]) != "false" || string(last["failed"]) != "1" {
		t.Fatalf("missing metric: exit %d, correct %s, failed %s", code, last["correct"], last["failed"])
	}
	for _, n := range metricNames(t, last) {
		if n == drop {
			t.Fatalf("dropped metric %s still emitted", n)
		}
	}
}
