// Command perfbench is the formation service's end-to-end benchmark. It
// drives a real ocpserve child process on loopback from one client
// process and prints, as the last line of standard output, one JSON
// object with the correctness verdict and every metric with its unit.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics against ocpserve. --trace 1
// repeats the workload against an in-process server, records spans
// around every HTTP call, every server stage a reply reports, and direct
// calls into core, incremental, region, routeidx and serve, writes the
// spans as NDJSON, and prints the per-layer metrics. README.md lists
// the workloads, the metrics, and which end-to-end metric each layer
// metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopChildren()
		os.Exit(2)
	}()
	err := run(os.Args[1:], os.Stdout, os.Stderr, defaultConfig)
	stopChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units is the unit of every metric the benchmark prints.
var units = map[string]string{
	"throughput_ops_s":     "1/s",
	"latency_p50_us":       "us",
	"server_cpu_us_per_op": "us",
	"rss_peak_mib":         "MiB",
	"setup_s":              "s",
	"ok_frac":              "ratio",

	"serve.http_residual_p50_us":       "us",
	"serve.http_residual_p99_us":       "us",
	"serve.queue_p99_us":               "us",
	"serve.batch_p99_us":               "us",
	"serve.batched_mean":               "count",
	"serve.compute_p50_us":             "us",
	"serve.publish_p50_us":             "us",
	"serve.publish_p99_us":             "us",
	"core.add_p50_us":                  "us",
	"core.remove_p50_us":               "us",
	"core.result_p50_us":               "us",
	"core.result_alloc_kib":            "KiB",
	"incremental.frontier_mean":        "count",
	"incremental.rounds_mean":          "count",
	"incremental.changed_per_frontier": "ratio",
	"routeidx.rebuild_p50_us":          "us",
	"routeidx.reused_frac":             "ratio",
	"routeidx.route_ns":                "ns",
	"routeidx.routemany_ns_per_query":  "ns",
	"serve.routes_decode_us":           "us",
	"serve.routes_encode_us":           "us",
	"core.form_ms":                     "ms",
	"simnet.rounds_phase1":             "count",
	"simnet.rounds_phase2":             "count",
	"region.regions":                   "count",
	"routeidx.compile_ms":              "ms",
	"serve.create_ms":                  "ms",
	"serve.restore_ms":                 "ms",
	"serve.snapshot_ms":                "ms",
	"runtime.alloc_kib_per_op":         "KiB",
	"runtime.gc_cpu_frac":              "ratio",
	"gen.late_p99_us":                  "us",
	"gen.backlog_max":                  "count",
	"trace.overhead_frac":              "ratio",
}

func run(args []string, stdout, stderr io.Writer, cfg config) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: churn, route or lifecycle")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 30, "measured seconds per run")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics against ocpserve; 1: traced run with per-layer metrics")
		bin     = fs.String("server", filepath.Join(".bench_build", "bin", "ocpserve"), "ocpserve binary")
		work    = fs.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for the server's working directory and the span file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	w, err := newWorkload(*name, *seed, cfg)
	if err != nil {
		return err
	}
	dur := time.Duration(*seconds * float64(time.Second))
	total0, steal0 := cpuTicks()
	var res *result
	if *traced == 0 {
		// The client's own garbage collections take CPU from the server
		// it shares the host with; a larger heap goal makes them rare.
		// (The traced run keeps the default: its server is in-process.)
		debug.SetGCPercent(400)
		res, err = endToEnd(w, *bin, *work, dur, stderr)
	} else {
		res, err = tracedRun(w, *work, dur, stderr)
	}
	if err != nil {
		return err
	}
	if total1, steal1 := cpuTicks(); total1 > total0 {
		fmt.Fprintf(stderr, "perfbench: %.0f%% of the host's CPU ticks were stolen by the hypervisor during the run\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func newResult(vals map[string]float64, ph ...phase) *result {
	r := &result{Correct: true, Metrics: make(map[string]metric, len(vals))}
	for k, v := range vals {
		r.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	for _, p := range ph {
		r.Attempted += p.attempted
		r.Failed += p.failed
	}
	return r
}

// setup starts a server, creates the workload's tenants and drives a
// fixed warmup; it returns the runner and op generator to measure with.
// segment picks where in the workload's op sequence the generator starts.
func setup(c *client, w *workload, segment int) (*runner, *generator, error) {
	for i, sh := range w.tenants {
		if _, err := c.expect("POST", "/api/tenants", sh.createBody(tenantID(i)), 201, nil); err != nil {
			return nil, nil, err
		}
	}
	r := &runner{c: c, w: w}
	gen := w.generator(segment)
	if p := r.closedLoop(gen, 0, w.cfg.warmup[w.kind]); p.failed > 0 {
		return nil, nil, fmt.Errorf("warmup: %d of %d ops failed: %v", p.failed, p.attempted, p.firstErr)
	}
	return r, gen, nil
}

// endToEnd measures against ocpserve in segments, each on a fresh
// server process: set-up (timed), closed loop, open loop, output check.
// Every metric is the median over segments, so one slow process or one
// host stall moves it less. Latency quantiles are taken per segment
// when each segment's schedule holds at least 1000 ops, else over the
// samples of all segments pooled.
func endToEnd(w *workload, bin, work string, dur time.Duration, stderr io.Writer) (*result, error) {
	dir := filepath.Join(work, fmt.Sprintf("server-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	n := w.cfg.segments
	seg := dur / time.Duration(n)
	perSegment := w.cfg.rate[w.name]*(seg.Seconds()*(1-w.cfg.closedShare)) >= 1000
	var (
		setups, tput, cpu, rss, p50, p90 []float64
		closed, open                     phase
	)
	for i := 0; i < n; i++ {
		start := time.Now()
		srv, err := startChild(bin, dir)
		if err != nil {
			return nil, err
		}
		p, q, err := func() (phase, phase, error) {
			c := newClient(srv.addr)
			defer c.close()
			r, gen, err := setup(c, w, i)
			if err != nil {
				return phase{}, phase{}, err
			}
			setups = append(setups, time.Since(start).Seconds())
			cpu0, err := srv.cpu()
			if err != nil {
				return phase{}, phase{}, err
			}
			closedDur := time.Duration(float64(seg) * w.cfg.closedShare)
			p := r.closedLoop(gen, closedDur, 0)
			cpu1, err := srv.cpu()
			if err != nil {
				return phase{}, phase{}, err
			}
			q := r.openLoopFor(gen, seg-closedDur)
			if err := check(c, w, r.answers); err != nil {
				return phase{}, phase{}, fmt.Errorf("output check: %w", err)
			}
			hwm, err := srv.peakRSS()
			if err != nil {
				return phase{}, phase{}, err
			}
			tput = append(tput, p.throughput())
			cpu = append(cpu, us(cpu1-cpu0)/float64(p.ok()))
			rss = append(rss, hwm)
			return p, q, nil
		}()
		srv.stop()
		if err != nil {
			return nil, err
		}
		if q.backlogGrew() {
			fmt.Fprintf(stderr, "perfbench: WARNING: segment %d: generator backlog grew during the open loop (max %d): the rate is above capacity\n", i, q.backlogMax)
		}
		if perSegment {
			if !tail(q.lat, 0.99) {
				return nil, fmt.Errorf("segment %d completed %d ops in its open loop: too few for a p99", i, len(q.lat))
			}
			p50 = append(p50, quantile(q.lat, 0.5))
			p90 = append(p90, quantile(q.lat, 0.9))
		}
		closed.merge(p)
		open.merge(q)
	}
	if !perSegment {
		if !tail(open.lat, 0.9) {
			return nil, fmt.Errorf("open loops completed %d ops: too few for a p90", len(open.lat))
		}
		p50 = []float64{quantile(open.lat, 0.5)}
		p90 = []float64{quantile(open.lat, 0.9)}
	}
	report(stderr, w, closed, open)
	fmt.Fprintf(stderr, "perfbench: %d segments; per segment: throughput %.0f, p50 %.0f, p90 %.0f, cpu/op %.0f, rss %.1f, setup %.3f (latency per segment: %v)\n",
		n, tput, p50, p90, cpu, rss, setups, perSegment)
	vals := map[string]float64{
		"throughput_ops_s":     median(tput),
		"latency_p50_us":       median(p50),
		"server_cpu_us_per_op": median(cpu),
		"rss_peak_mib":         median(rss),
		"setup_s":              median(setups),
		"ok_frac":              float64(closed.ok()+open.ok()) / float64(closed.attempted+open.attempted),
	}
	return newResult(vals, closed, open), nil
}

// report prints the run's sample counts, its pooled open-loop latency
// quantiles up to the highest with at least ten samples beyond it, and
// the generator's health.
func report(stderr io.Writer, w *workload, closed, open phase) {
	fmt.Fprintf(stderr, "perfbench: %s seed %d: closed loop %d requests (%d failed), open loop %d requests in %d ops at %.0f ops/s (%d failed, %d latency samples)\n",
		w.name, w.seed, closed.attempted, closed.failed,
		open.attempted, len(open.late), w.cfg.rate[w.name], open.failed, len(open.lat))
	fmt.Fprintf(stderr, "perfbench: open-loop latency")
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if q == 0.5 || tail(open.lat, q) {
			fmt.Fprintf(stderr, " p%g %.0f", 100*q, quantile(open.lat, q))
		}
	}
	fmt.Fprintf(stderr, " max %.0f us; generator late p99 %.0f us, backlog max %d\n", quantile(open.lat, 1), quantile(open.late, 0.99), open.backlogMax)
	for _, p := range []phase{closed, open} {
		if p.firstErr != nil {
			fmt.Fprintf(stderr, "perfbench: first failure: %v\n", p.firstErr)
		}
	}
}

// tracedRun repeats the workload against an in-process server with
// spans, then times direct layer calls.
func tracedRun(w *workload, work string, dur time.Duration, stderr io.Writer) (*result, error) {
	srv, err := startInproc(w.seed)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	c := newClient(srv.addr)
	defer c.close()
	tr := newTracer()
	r, gen, err := setup(c, w, 0)
	if err != nil {
		return nil, err
	}

	// Untraced and traced closed loops of equal length give the
	// tracer's own cost; the traced open loop gives the attribution.
	closedDur := time.Duration(float64(dur) * w.cfg.closedShare / 2)
	untraced := r.closedLoop(gen, closedDur, 0)
	r.tr = tr
	rt0 := readRuntime()
	closed := r.closedLoop(gen, closedDur, 0)
	r.deltas = nil
	open := r.openLoopFor(gen, dur-2*closedDur)
	rt1 := readRuntime()
	deltas := r.deltas
	if len(deltas) == 0 {
		// The workload sends no deltas: attribute a fixed delta probe.
		deltas, err = deltaProbe(c, w, tr)
		if err != nil {
			return nil, err
		}
	}
	vals, err := probe(w, tr)
	if err != nil {
		return nil, err
	}
	if err := check(c, w, r.answers); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	report(stderr, w, closed, open)
	if open.backlogGrew() {
		fmt.Fprintf(stderr, "perfbench: WARNING: generator backlog grew during the open loop (max %d): the rate is above capacity\n", open.backlogMax)
	}

	var resid, queue, batch, compute, publish, batched []float64
	for _, d := range deltas {
		st := d.stages
		resid = append(resid, us(d.residual()))
		queue = append(queue, float64(st.QueueNS)/1e3)
		batch = append(batch, float64(st.BatchNS)/1e3)
		compute = append(compute, float64(st.ComputeNS)/1e3)
		publish = append(publish, float64(st.PublishNS)/1e3)
		batched = append(batched, float64(d.batched))
	}
	ops := float64(closed.attempted + open.attempted)
	vals["serve.http_residual_p50_us"] = quantile(resid, 0.5)
	vals["serve.http_residual_p99_us"] = quantile(resid, 0.99)
	vals["serve.queue_p99_us"] = quantile(queue, 0.99)
	vals["serve.batch_p99_us"] = quantile(batch, 0.99)
	vals["serve.batched_mean"] = mean(batched)
	vals["serve.compute_p50_us"] = quantile(compute, 0.5)
	vals["serve.publish_p50_us"] = quantile(publish, 0.5)
	vals["serve.publish_p99_us"] = quantile(publish, 0.99)
	vals["runtime.alloc_kib_per_op"] = (rt1.allocs - rt0.allocs) / 1024 / ops
	vals["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU)
	vals["gen.late_p99_us"] = quantile(open.late, 0.99)
	vals["gen.backlog_max"] = float64(open.backlogMax)
	vals["trace.overhead_frac"] = 1 - closed.throughput()/untraced.throughput()

	self := tr.selfTimes()
	roots := make([]string, 0, len(self))
	for root := range self {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	for _, root := range roots {
		writeSelfTimes(stderr, root, self[root])
	}
	spans := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.ndjson", w.name, w.seed))
	if err := tr.writeNDJSON(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(tr.spans), spans)
	return newResult(vals, closed, open), nil
}

// deltaProbe attributes single-point deltas on a probe tenant of the
// workload's shape, for workloads whose traffic carries none.
func deltaProbe(c *client, w *workload, tr *tracer) ([]deltaRecord, error) {
	sh := w.probeShape()
	pw := &workload{name: w.name, seed: w.seed, cfg: w.cfg, kind: kindDelta, tenants: []shape{sh}}
	if _, err := c.expect("POST", "/api/tenants", sh.createBody(tenantID(0)+"probe"), 201, nil); err != nil {
		return nil, err
	}
	r := &runner{c: c, w: pw, tr: tr}
	gen := pw.generator(0)
	var p phase
	for i := 0; i < w.cfg.probeDeltas; i++ {
		o := gen.next()
		o.tenant += "probe"
		r.exec(o, time.Now(), &p)
		if p.firstErr != nil {
			return nil, p.firstErr
		}
	}
	if _, err := c.expect("DELETE", "/api/tenants/"+tenantID(0)+"probe", nil, 200, nil); err != nil {
		return nil, err
	}
	return r.deltas, nil
}
