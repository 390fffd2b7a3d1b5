package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"time"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/routeidx"
	"ocpmesh/internal/routing"
	"ocpmesh/internal/serve"
)

// runtimeSample reads the Go runtime counters the traced run reports.
type runtimeSample struct{ allocs, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// probe times direct calls into core, incremental, region, routeidx and
// serve on the workload's own tenant shape. Every call is a span under
// one "probe" root; the returned values are per-layer metrics.
func probe(w *workload, tr *tracer) (map[string]float64, error) {
	cfg := w.cfg
	sh := w.probeShape()
	ccfg := sh.coreConfig()
	topo, err := mesh.New(ccfg.Width, ccfg.Height, ccfg.Kind)
	if err != nil {
		return nil, err
	}
	root := tr.id()
	start := time.Now()
	defer func() { tr.record(root, 0, 0, "probe", start, time.Now()) }()
	m := make(map[string]float64)

	// Full formation (core over simnet and region) and index compile.
	var sess *core.Session
	var form []float64
	for i := 0; i < cfg.probeReps; i++ {
		var s *core.Session
		var err error
		d := tr.timed(root, "core.NewSessionOn", func() { s, err = core.NewSessionOn(ccfg, topo, grid.PointSetOf(sh.faults...)) })
		if err != nil {
			return nil, err
		}
		form = append(form, ms(d))
		if sess != nil {
			sess.Close()
		}
		sess = s
	}
	defer sess.Close()
	res := sess.Result()
	m["core.form_ms"] = median(form)
	m["simnet.rounds_phase1"] = float64(res.RoundsPhase1)
	m["simnet.rounds_phase2"] = float64(res.RoundsPhase2)
	m["region.regions"] = float64(len(res.Regions))

	var ix *routeidx.Index
	var compile []float64
	for i := 0; i < cfg.probeReps; i++ {
		d := tr.timed(root, "routeidx.Compile", func() { ix = routeidx.Compile(res, routing.ModelRegions, routeidx.Options{}) })
		compile = append(compile, ms(d))
	}
	m["routeidx.compile_ms"] = median(compile)

	// Single-point churn on the session, as the shard loop runs it:
	// delta, Result, index rebuild.
	rng := rand.New(rand.NewSource(w.seed ^ 0x9e0be))
	faulty := make([]bool, len(sh.pool))
	for i := range sh.faults {
		faulty[i] = true
	}
	var adds, removes, results, rebuilds, allocs []float64
	var frontier, rounds, changed, reused, regions float64
	for k := 0; k < cfg.probeDeltas; k++ {
		add := k%2 == 0
		i := rng.Intn(len(sh.pool))
		for faulty[i] == add {
			i = rng.Intn(len(sh.pool))
		}
		faulty[i] = add
		var d core.Delta
		var err error
		if add {
			adds = append(adds, us(tr.timed(root, "core.AddFaults", func() { d, err = sess.AddFaults(sh.pool[i]) })))
		} else {
			removes = append(removes, us(tr.timed(root, "core.RemoveFaults", func() { d, err = sess.RemoveFaults(sh.pool[i]) })))
		}
		if err != nil {
			return nil, err
		}
		if d.Points != 1 {
			return nil, fmt.Errorf("probe delta %d applied %d points, want 1", k, d.Points)
		}
		frontier += float64(d.Frontier)
		rounds += float64(d.Rounds())
		changed += float64(d.ChangedPhase1 + d.ChangedPhase2)
		before := readRuntime().allocs
		results = append(results, us(tr.timed(root, "core.Result", func() { res = sess.Result() })))
		allocs = append(allocs, (readRuntime().allocs-before)/1024)
		rebuilds = append(rebuilds, us(tr.timed(root, "routeidx.Rebuild", func() { ix = ix.Rebuild(res) })))
		st := ix.Stats()
		reused += float64(st.Reused)
		regions += float64(st.Regions)
	}
	n := float64(cfg.probeDeltas)
	m["core.add_p50_us"] = median(adds)
	m["core.remove_p50_us"] = median(removes)
	m["core.result_p50_us"] = median(results)
	m["core.result_alloc_kib"] = median(allocs)
	m["incremental.frontier_mean"] = frontier / n
	m["incremental.rounds_mean"] = rounds / n
	m["incremental.changed_per_frontier"] = changed / frontier
	m["routeidx.rebuild_p50_us"] = median(rebuilds)
	m["routeidx.reused_frac"] = reused / regions

	// Route lookups on the final index, single and batched, and the
	// serve codec on a batch of the size clients send.
	var en []grid.Point
	for k, ok := range res.Enabled {
		if ok {
			en = append(en, res.Topo.PointAt(k))
		}
	}
	batch := cfg.routeBatch
	var single, many, decode, encode []float64
	for b := 0; b < cfg.probeRoutes/batch; b++ {
		qs := make([]routeidx.Query, batch)
		quads := make([][4]int, batch)
		for i := range qs {
			s, d := en[rng.Intn(len(en))], en[rng.Intn(len(en))]
			qs[i] = routeidx.Query{Src: s, Dst: d}
			quads[i] = [4]int{s.X, s.Y, d.X, d.Y}
		}
		dur := tr.timed(root, "routeidx.Route", func() {
			for _, q := range qs {
				_, _ = ix.Route(q.Src, q.Dst)
			}
		})
		single = append(single, float64(dur.Nanoseconds())/float64(batch))
		var answers []routeidx.Answer
		dur = tr.timed(root, "routeidx.RouteMany", func() { answers = ix.RouteMany(qs, routeidx.BatchOptions{}) })
		many = append(many, float64(dur.Nanoseconds())/float64(batch))

		body := mustJSON(serve.RoutesRequest{Queries: quads})
		var req serve.RoutesRequest
		var derr error
		decode = append(decode, us(tr.timed(root, "serve.routes_decode", func() {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			derr = dec.Decode(&req)
		})))
		if derr != nil {
			return nil, derr
		}
		resp := serve.RoutesResponse{Answers: make([]serve.RouteAnswer, len(answers))}
		for i, a := range answers {
			resp.Answers[i] = serve.RouteAnswer{OK: a.Err == nil, Hops: a.Hops}
		}
		var buf bytes.Buffer
		var eerr error
		encode = append(encode, us(tr.timed(root, "serve.routes_encode", func() {
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			eerr = enc.Encode(resp)
		})))
		if eerr != nil {
			return nil, eerr
		}
	}
	m["routeidx.route_ns"] = median(single)
	m["routeidx.routemany_ns_per_query"] = median(many)
	m["serve.routes_decode_us"] = median(decode)
	m["serve.routes_encode_us"] = median(encode)

	// Tenant create, snapshot and restore on a bare service.
	svc := serve.New(serve.Options{})
	defer svc.Close()
	var create, snap, restore []float64
	for i := 0; i < cfg.probeReps; i++ {
		var t *serve.Tenant
		var err error
		create = append(create, ms(tr.timed(root, "serve.Create", func() {
			t, _, err = svc.Create(fmt.Sprintf("p%d", i), sh.tenantConfig(), sh.faults)
		})))
		if err != nil {
			return nil, err
		}
		var data []byte
		snap = append(snap, ms(tr.timed(root, "serve.snapshot", func() {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			err = enc.Encode(t.TakeSnapshot())
			data = buf.Bytes()
		})))
		if err != nil {
			return nil, err
		}
		var ts serve.TenantSnapshot
		if err := json.Unmarshal(data, &ts); err != nil {
			return nil, err
		}
		restore = append(restore, ms(tr.timed(root, "serve.Restore", func() {
			_, err = svc.Restore(fmt.Sprintf("r%d", i), &ts)
		})))
		if err != nil {
			return nil, err
		}
	}
	m["serve.create_ms"] = median(create)
	m["serve.snapshot_ms"] = median(snap)
	m["serve.restore_ms"] = median(restore)
	return m, nil
}
