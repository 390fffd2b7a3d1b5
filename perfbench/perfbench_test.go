package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinyConfig runs every workload in a few seconds on small meshes.
var tinyConfig = config{
	n: 48, faults: 24, tenants: 2,
	lcN: 32, lcFaults: 24, patterns: 4,
	routeBatch:  8,
	segments:    2,
	warmup:      map[string]int{kindDelta: 20, kindRoutes: 20, kindCycle: 4},
	rate:        map[string]float64{"churn": 400, "route": 400, "lifecycle": 100},
	closedShare: 0.3,
	probeDeltas: 40, probeRoutes: 64, probeReps: 2,
}

type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs each workload of BENCHMARK.json at tiny size, untraced
// against a freshly built ocpserve and traced in-process, and checks the
// result line: outputs correct, nothing failed, and exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ocpserve and runs every workload")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ocpserve")
	if out, err := exec.Command("go", "build", "-o", bin, "ocpmesh/cmd/ocpserve").CombinedOutput(); err != nil {
		t.Fatalf("build ocpserve: %v\n%s", err, out)
	}
	for _, wl := range sp.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": sp.EndToEnd, "1": sp.PerLayer} {
			t.Run(wl.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", wl.Name, "--seed", "7", "--seconds", "4", "--trace", trace, "--server", bin, "--dir", dir}
				if err := run(args, &stdout, &stderr, tinyConfig); err != nil {
					t.Fatalf("run: %v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics %v, BENCHMARK.json names %d", len(res.Metrics), metricNames(&res), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestStagesTelescope checks the churn attribution: for every delta,
// the server's four stages plus the HTTP residual equal the
// client-observed latency to the nanosecond, the residual is never
// negative, and the HTTP spans' self time is exactly the residuals'
// sum.
func TestStagesTelescope(t *testing.T) {
	w, err := newWorkload("churn", 3, tinyConfig)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := startInproc(w.seed)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	c := newClient(srv.addr)
	defer c.close()
	r, gen, err := setup(c, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.tr = newTracer()
	if p := r.closedLoop(gen, 0, 300); p.failed != 0 {
		t.Fatalf("%d deltas failed: %v", p.failed, p.firstErr)
	}
	if len(r.deltas) != 300 {
		t.Fatalf("%d delta records, want 300", len(r.deltas))
	}
	var residuals time.Duration
	for i, d := range r.deltas {
		st := d.stages
		if sum := st.QueueNS + st.BatchNS + st.ComputeNS + st.PublishNS; sum != st.TotalNS {
			t.Fatalf("delta %d: stages sum to %d ns, total %d ns", i, sum, st.TotalNS)
		}
		if got := time.Duration(st.TotalNS) + d.residual(); got != d.client {
			t.Fatalf("delta %d: stages + residual = %v, client latency %v", i, got, d.client)
		}
		if d.residual() < 0 {
			t.Fatalf("delta %d: negative residual %v", i, d.residual())
		}
		residuals += d.residual()
	}
	if got := r.tr.selfTimes()["op.delta"]["http.deltas"]; got != residuals {
		t.Fatalf("http.deltas self time %v, residuals sum to %v", got, residuals)
	}
	if err := check(c, w, nil); err != nil {
		t.Fatal(err)
	}
}

// metricNames lists the metric names of a result, sorted.
func metricNames(r *result) []string {
	var names []string
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
