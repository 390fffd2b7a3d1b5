package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/serve"
)

// Operation kinds. One op is one client-visible unit of work: a delta
// or a route batch is one HTTP request, a lifecycle cycle is five.
const (
	kindDelta  = "delta"
	kindRoutes = "routes"
	kindCycle  = "cycle"
)

// config holds every size the benchmark runs at. defaultConfig is the
// benchmark; the tests run tinyConfig.
type config struct {
	// n and faults shape the churn/route tenants; tenants is how many.
	n, faults, tenants int
	// lcN and lcFaults shape the lifecycle meshes; patterns is how many
	// distinct fault patterns the cycles rotate through. Pattern cost
	// varies a lot, so many patterns keep one seed's mix close to
	// another's.
	lcN, lcFaults, patterns int
	// routeBatch is the query count of one POST /routes.
	routeBatch int
	// segments is how many server processes a run measures in turn,
	// each set up afresh (setup_s is the median of their set-ups).
	segments int
	// warmup is the op count driven (closed loop) before measuring.
	warmup map[string]int
	// rate is the open-loop schedule per workload, ops/s: about half
	// the closed-loop throughput of the parent commit on a 2-vCPU box
	// whose host is busy, so the open loop stays below capacity when
	// the host is.
	rate map[string]float64
	// closedShare is the share of --seconds spent in the closed loop;
	// the rest is the open loop.
	closedShare float64
	// probeDeltas, probeRoutes and probeReps size the direct layer
	// calls of the traced run.
	probeDeltas, probeRoutes, probeReps int
}

var defaultConfig = config{
	n: 512, faults: 200, tenants: 2,
	lcN: 256, lcFaults: 256, patterns: 256,
	routeBatch:  64,
	segments:    5,
	warmup:      map[string]int{kindDelta: 400, kindRoutes: 400, kindCycle: 16},
	rate:        map[string]float64{"churn": 500, "route": 800, "lifecycle": 18},
	closedShare: 0.5,
	probeDeltas: 400, probeRoutes: 4096, probeReps: 5,
}

// senders is the client concurrency of both loops: the connection count
// of the single client process (the benchmark box has nproc = 2).
const senders = 2

// shape is one tenant mesh: its side, initial faults and the candidate
// pool its deltas draw from. The initial faults are the pool's first
// entries and the pool is four times their number, so the fault count
// fluctuates without drifting. Pool points cluster around one centre per
// eight faults, so faults meet: blocks grow and merge, and formation and
// deltas run real rounds instead of relabelling isolated faults.
type shape struct {
	n      int
	faults []grid.Point
	pool   []grid.Point
}

// clusterRadius is the half-width of the box pool points fall in around
// their centre.
const clusterRadius = 6

func newShape(n, faults int, rng *rand.Rand) shape {
	size := min(4*faults, n*n/2)
	centers := make([]grid.Point, max(1, faults/8))
	for i := range centers {
		centers[i] = grid.Pt(rng.Intn(n), rng.Intn(n))
	}
	seen := make(map[grid.Point]bool, size)
	pool := make([]grid.Point, 0, size)
	for len(pool) < size {
		c := centers[rng.Intn(len(centers))]
		x := c.X + rng.Intn(2*clusterRadius+1) - clusterRadius
		y := c.Y + rng.Intn(2*clusterRadius+1) - clusterRadius
		p := grid.Pt(min(max(x, 0), n-1), min(max(y, 0), n-1))
		if !seen[p] {
			seen[p] = true
			pool = append(pool, p)
		}
	}
	return shape{n: n, faults: pool[:faults], pool: pool}
}

func (s shape) tenantConfig() serve.TenantConfig {
	return serve.TenantConfig{Width: s.n, Height: s.n, Engine: "bitset"}
}

func (s shape) coreConfig() core.Config {
	cfg, err := s.tenantConfig().CoreConfig()
	if err != nil {
		panic(err) // a constant config
	}
	return cfg
}

// form is a fresh formation of faults on the shape's mesh: the
// reference every served label plane is compared with.
func (s shape) form(faults []grid.Point) (*core.Result, error) {
	cfg := s.coreConfig()
	topo, err := mesh.New(cfg.Width, cfg.Height, cfg.Kind)
	if err != nil {
		return nil, err
	}
	return core.FormOn(cfg, topo, grid.PointSetOf(faults...))
}

func (s shape) createBody(id string) []byte {
	req := serve.CreateRequest{ID: id, Config: s.tenantConfig(), Faults: pairs(s.faults)}
	return mustJSON(req)
}

func pairs(ps []grid.Point) [][2]int {
	out := make([][2]int, len(ps))
	for i, p := range ps {
		out[i] = [2]int{p.X, p.Y}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built values are encoded
	}
	return b
}

// op is one generated operation.
type op struct {
	kind   string
	tenant string
	body   []byte
	// queries is kept for route batches whose answers are checked
	// against routing.Detour after the run (a seeded sample).
	queries [][4]int
	// pattern is the lifecycle fault pattern of a cycle.
	pattern int
}

// workload holds a workload's inputs, all drawn from the seed.
type workload struct {
	name string
	seed int64
	cfg  config
	// tenants are the long-lived meshes of churn and route, created at
	// setup under ids t0, t1, ...
	tenants []shape
	// enabled lists each tenant's enabled nodes (route endpoints).
	enabled [][]grid.Point
	// patterns are the lifecycle meshes.
	patterns []shape
	kind     string
}

func tenantID(i int) string { return fmt.Sprintf("t%d", i) }

func newWorkload(name string, seed int64, cfg config) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name, seed: seed, cfg: cfg}
	switch name {
	case "churn", "route":
		w.kind = kindDelta
		if name == "route" {
			w.kind = kindRoutes
		}
		for i := 0; i < cfg.tenants; i++ {
			sh := newShape(cfg.n, cfg.faults, rng)
			w.tenants = append(w.tenants, sh)
			if name == "route" {
				res, err := sh.form(sh.faults)
				if err != nil {
					return nil, err
				}
				var en []grid.Point
				for k, ok := range res.Enabled {
					if ok {
						en = append(en, res.Topo.PointAt(k))
					}
				}
				w.enabled = append(w.enabled, en)
			}
		}
	case "lifecycle":
		w.kind = kindCycle
		for i := 0; i < cfg.patterns; i++ {
			w.patterns = append(w.patterns, newShape(cfg.lcN, cfg.lcFaults, rng))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want churn, route or lifecycle)", name)
	}
	if cfg.faults <= recentWindow || cfg.lcFaults <= recentWindow {
		return nil, fmt.Errorf("fault counts must exceed the delta reuse window %d", recentWindow)
	}
	if _, ok := cfg.rate[name]; !ok {
		return nil, fmt.Errorf("no open-loop rate for workload %q", name)
	}
	return w, nil
}

// probeShape is the mesh the traced run's direct layer calls work on:
// the workload's own tenant shape.
func (w *workload) probeShape() shape {
	if len(w.tenants) > 0 {
		return w.tenants[0]
	}
	return w.patterns[0]
}

// generator is the workload's op sequence. The sequence depends only on
// the seed; how far a run gets into it depends on the server's speed.
type generator struct {
	w   *workload
	mu  sync.Mutex
	rng *rand.Rand
	// churn state per tenant: which pool entries are faulty, whether the
	// next delta adds, and the recently touched pool entries (never
	// reused within a window, so two deltas in flight at once never
	// touch the same point and the final fault set does not depend on
	// their interleaving).
	faulty [][]bool
	adds   []bool
	recent [][]int
	cycles int
}

// recentWindow bounds how close two deltas on the same point may be in
// the sequence; it must exceed the senders in flight.
const recentWindow = 16

// routeSampleEvery is the mean spacing of route batches whose answers
// are checked against routing.Detour.
const routeSampleEvery = 8

// generator returns the op sequence a segment measures. Each segment of
// a run draws its own sequence, and lifecycle segments start at spread
// out patterns, so a run covers more of the seed's inputs than one
// segment does.
func (w *workload) generator(segment int) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(w.seed ^ 0x5eed + int64(segment)<<32))}
	if w.cfg.segments > 0 {
		g.cycles = segment * len(w.patterns) / w.cfg.segments
	}
	for _, sh := range w.tenants {
		f := make([]bool, len(sh.pool))
		for i := range sh.faults {
			f[i] = true
		}
		g.faulty = append(g.faulty, f)
		g.adds = append(g.adds, true)
		g.recent = append(g.recent, nil)
	}
	return g
}

func (g *generator) next() *op {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch g.w.kind {
	case kindDelta:
		return g.delta()
	case kindRoutes:
		return g.routes()
	default:
		k := g.cycles
		g.cycles++
		return &op{kind: kindCycle, tenant: fmt.Sprintf("lc%d", k), pattern: k % len(g.w.patterns)}
	}
}

func (g *generator) delta() *op {
	t := g.rng.Intn(len(g.w.tenants))
	sh, faulty := g.w.tenants[t], g.faulty[t]
	add := g.adds[t]
	g.adds[t] = !add
	var i int
	for {
		i = g.rng.Intn(len(sh.pool))
		if faulty[i] != add && !contains(g.recent[t], i) {
			break
		}
	}
	faulty[i] = add
	g.recent[t] = append(g.recent[t], i)
	if len(g.recent[t]) > recentWindow {
		g.recent[t] = g.recent[t][1:]
	}
	opName := "remove"
	if add {
		opName = "add"
	}
	body := mustJSON(serve.DeltaRequest{Op: opName, Points: pairs([]grid.Point{sh.pool[i]})})
	return &op{kind: kindDelta, tenant: tenantID(t), body: body}
}

func (g *generator) routes() *op {
	t := g.rng.Intn(len(g.w.tenants))
	en := g.w.enabled[t]
	qs := make([][4]int, g.w.cfg.routeBatch)
	for i := range qs {
		s, d := en[g.rng.Intn(len(en))], en[g.rng.Intn(len(en))]
		qs[i] = [4]int{s.X, s.Y, d.X, d.Y}
	}
	o := &op{kind: kindRoutes, tenant: tenantID(t), body: mustJSON(serve.RoutesRequest{Queries: qs})}
	if g.rng.Intn(routeSampleEvery) == 0 {
		o.queries = qs
	}
	return o
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
