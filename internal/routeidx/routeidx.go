// Package routeidx compiles a formation result into an immutable,
// lock-free routing index so that a source→destination route query
// becomes a few binary searches plus segment stitching instead of the
// step-by-step walk internal/routing.Detour performs.
//
// The index has three layers, all derived from the OCP fault regions the
// formation produces:
//
//   - Per-row and per-column interval tables over the whole machine: for
//     every row (column) the sorted, disjoint spans of forbidden cells,
//     each span pointing back at the region that owns it. A greedy
//     dimension-order run of any length costs one binary search to find
//     the first blocking cell.
//   - Per-region boundary rings: every fault region's wall-following
//     contour, precomputed as cycles in (cell, heading) state space by
//     running Detour's exact right-hand automaton on an idealized map
//     that contains only this region's cells and the mesh borders. The
//     turning cells of each ring are kept as a sorted corner array, and
//     because rings are cyclic arrays, the clockwise vs counterclockwise
//     detour cost between any two wall states is plain modular index
//     arithmetic (DetourCosts).
//   - A position map from wall-entry state to ring offset, so a blocked
//     greedy run continues by replaying the precomputed contour instead
//     of probing four neighbors per hop.
//
// The indexed router is hop-identical to Detour by construction, not by
// tuning: the real map's forbidden set is a superset of each idealized
// map's, so every direction the idealized automaton rejected is rejected
// for real too, and each precomputed step needs only an O(1) "is the
// next ring cell still allowed" check. Whenever that check fails (a
// second region crowds the contour, or a wall-entry state fell outside
// every precomputed cycle), the router falls back to running the
// automaton inline for that episode — still exact, just not accelerated.
//
// Indexes are immutable once built and are published with snapshots
// (atomic.Pointer, same discipline as internal/serve). Rebuild reuses
// the per-region compilation of every region whose *region.Region
// pointer survived the delta — region.UpdateRegions keeps survivor
// pointers, and a region's compilation depends only on its own cells —
// so steady-state delta cost is O(changed regions): one pointer merge
// over the canonically ordered region lists, the fresh regions'
// compilation, and reassembling only the rows and columns the changed
// regions cover from the previous tables.
package routeidx

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/region"
	"ocpmesh/internal/routing"
)

// Options parameterizes index compilation.
type Options struct {
	// MaxHops bounds each simulated walk; 0 means 4 x machine size,
	// matching routing.Detour's default.
	MaxHops int
	// Recorder receives route_index build events and metrics. Nil means
	// observability off.
	Recorder *obs.Recorder
	// Tenant labels build events when the index serves a tenant.
	Tenant string
}

// Stats describes the last (re)build of an index.
type Stats struct {
	// Regions is the obstacle count, Compiled how many were compiled
	// from scratch by the last build, Reused how many were carried over
	// pointer-identical from the previous index.
	Regions, Compiled, Reused int
}

// span is one maximal run of forbidden cells in a row (x interval) or
// column (y interval), pointing at the owning region's compilation.
// Row/column tables reference regions by pointer, not list index, so an
// unchanged row's span slice survives region-list renumbering across
// incremental rebuilds.
type span struct {
	lo, hi int32
	reg    *regionIdx
}

// Index is an immutable routing index over one formation result. All
// methods are safe for concurrent use; queries take no locks.
type Index struct {
	res     core.Formation
	topo    *mesh.Topology
	model   routing.Model
	opt     Options
	metrics *buildMetrics
	maxHops int
	w, h    int
	torus   bool
	allow   func(grid.Point) bool
	regs    []*regionIdx
	srcs    []*region.Region // parallel to regs; nil for synthetic fault components
	rows    spanTable        // rows.at(y): forbidden x spans, sorted by lo
	cols    spanTable        // cols.at(x): forbidden y spans, sorted by lo
	stats   Stats
}

// buildMetrics holds the route_index_* metric handles, resolved once at
// Compile and shared by every Rebuild descending from it, so a rebuild
// never takes the registry's name-lookup lock. Nil without a recorder.
type buildMetrics struct {
	builds, compiled, reused *obs.Counter
	buildNS                  *obs.Histogram
}

func newBuildMetrics(rec *obs.Recorder) *buildMetrics {
	if rec == nil {
		return nil
	}
	return &buildMetrics{
		builds:   rec.Counter("route_index_builds"),
		compiled: rec.Counter("route_index_regions_compiled"),
		reused:   rec.Counter("route_index_regions_reused"),
		buildNS:  rec.Histogram("route_index_build_ns", obs.NSBuckets),
	}
}

// Compile builds the index for res under the given fault model.
func Compile(res core.Formation, model routing.Model, opt Options) *Index {
	return build(nil, res, model, opt, newBuildMetrics(opt.Recorder))
}

// Rebuild compiles an index for a new result incrementally: regions
// whose *region.Region pointer is shared with the previous result —
// i.e. whose label sets did not change across the delta — keep their
// compiled form, and only the interval-table rows and columns the
// changed regions cover are reassembled. res must come from the same
// session (same topology) as the previous index's result. Under
// ModelFaultsOnly obstacles are synthesized fault components with no
// stable pointers, so Rebuild degrades to a full recompile.
func (ix *Index) Rebuild(res core.Formation) *Index {
	return build(ix, res, ix.model, ix.opt, ix.metrics)
}

// Result returns the formation the index was compiled for.
func (ix *Index) Result() core.Formation { return ix.res }

// Model returns the fault model the index routes under.
func (ix *Index) Model() routing.Model { return ix.model }

// Stats returns the compile/reuse accounting of the last build.
func (ix *Index) Stats() Stats { return ix.stats }

func build(prev *Index, res core.Formation, model routing.Model, opt Options, m *buildMetrics) *Index {
	start := time.Now()
	topo := res.Topology()
	maxHops := opt.MaxHops
	if maxHops == 0 {
		maxHops = 4 * topo.Size()
	}
	ix := &Index{
		res: res, topo: topo, model: model, opt: opt, metrics: m, maxHops: maxHops,
		w: topo.Width(), h: topo.Height(), torus: topo.Kind() == mesh.Torus2D,
		allow: model.Predicate(res),
	}
	srcs, stable := sourcesOf(res, model)
	if prev != nil && stable && prev.w == ix.w && prev.h == ix.h {
		ix.rebuildFrom(prev, srcs)
	} else {
		ix.compileAll(srcs, stable)
	}

	if rec := opt.Recorder; rec != nil {
		dur := time.Since(start).Nanoseconds()
		rec.Emit(obs.Event{
			Type: obs.ERouteIndex, Tenant: opt.Tenant, N: ix.stats.Regions,
			Changed: ix.stats.Compiled, Frontier: ix.stats.Reused, DurNS: dur,
		})
		m.builds.Inc()
		m.compiled.Add(int64(ix.stats.Compiled))
		m.reused.Add(int64(ix.stats.Reused))
		m.buildNS.Observe(float64(dur))
	}
	return ix
}

// compileAll compiles every obstacle — the formation's regions srcs
// when stable, else synthesized fault components — and assembles both
// interval tables from scratch.
func (ix *Index) compileAll(srcs []*region.Region, stable bool) {
	var cells []*grid.PointSet
	if stable {
		ix.srcs = srcs
		cells = make([]*grid.PointSet, len(srcs))
		for i, r := range srcs {
			cells[i] = r.Nodes
		}
	} else {
		cells = conn8Components(ix.res)
		ix.srcs = make([]*region.Region, len(cells))
	}
	ix.regs = make([]*regionIdx, len(cells))
	for i, c := range cells {
		ix.regs[i] = compileRegion(ix.topo, c)
	}
	ix.stats = Stats{Regions: len(cells), Compiled: len(cells)}
	ix.rows = patchTable(newSpanTable(ix.h), ix.regs, nil, rowAxis)
	ix.cols = patchTable(newSpanTable(ix.w), ix.regs, nil, colAxis)
}

// rebuildFrom derives the index from prev in O(changed regions): one
// merge over the two canonically ordered region lists pairs survivors by
// pointer (their compilations carry over), compiles the fresh regions,
// and patches only the table rows and columns the fresh and retired
// regions cover. Every other table chunk is shared with prev.
func (ix *Index) rebuildFrom(prev *Index, srcs []*region.Region) {
	ix.srcs = srcs
	ix.regs = make([]*regionIdx, len(ix.srcs))
	var added, removed []*regionIdx
	pi := 0
	for j, r := range ix.srcs {
		// Both lists are sorted by canonical node with distinct keys, so a
		// previous region keyed at or before r that is not r itself can
		// no longer appear: it was retired by the delta.
		key := r.Canonical()
		for pi < len(prev.srcs) && prev.srcs[pi] != r && !key.Less(prev.srcs[pi].Canonical()) {
			removed = append(removed, prev.regs[pi])
			pi++
		}
		if pi < len(prev.srcs) && prev.srcs[pi] == r {
			ix.regs[j] = prev.regs[pi]
			pi++
			continue
		}
		ix.regs[j] = compileRegion(ix.topo, r.Nodes)
		added = append(added, ix.regs[j])
	}
	removed = append(removed, prev.regs[pi:]...)
	ix.stats = Stats{Regions: len(ix.srcs), Compiled: len(added), Reused: len(ix.srcs) - len(added)}
	ix.rows = patchTable(prev.rows, added, removed, rowAxis)
	ix.cols = patchTable(prev.cols, added, removed, colAxis)
}

// rowAxis and colAxis select a compiled region's contribution to the row
// or column table: the first table slot it covers and its runs per slot.
func rowAxis(rp *regionIdx) (int, [][]xrun) { return rp.bounds.MinY, rp.rowRuns }
func colAxis(rp *regionIdx) (int, [][]xrun) { return rp.bounds.MinX, rp.colRuns }

// tableChunk is the slot count of one spanTable chunk.
const tableChunk = 64

// spanTable is a row (or column) interval table split into fixed chunks
// of slots, so that patching a few slots copies the chunk pointers and
// the chunks holding those slots while every other chunk stays shared
// with the previous index. A chunk is never written once an index
// holds it.
type spanTable struct {
	chunks []*[tableChunk][]span
}

// emptyChunk backs every chunk of a fresh table; patchTable copies it
// before the first write, like any other shared chunk.
var emptyChunk = new([tableChunk][]span)

func newSpanTable(n int) spanTable {
	t := spanTable{chunks: make([]*[tableChunk][]span, (n+tableChunk-1)/tableChunk)}
	for c := range t.chunks {
		t.chunks[c] = emptyChunk
	}
	return t
}

// at returns slot i's spans.
func (t spanTable) at(i int) []span { return t.chunks[i/tableChunk][i%tableChunk] }

// patchTable returns tab with every slot an added or removed region
// covers reassembled — the slot's previous spans minus the removed
// regions', plus the added regions' runs, sorted — and every chunk
// without such a slot shared with tab. Spans in one slot are disjoint,
// so the result is exactly the table a from-scratch assembly produces.
func patchTable(tab spanTable, added, removed []*regionIdx, axis func(*regionIdx) (int, [][]xrun)) spanTable {
	if len(added) == 0 && len(removed) == 0 {
		return tab
	}
	var dirty []int
	for _, group := range [2][]*regionIdx{added, removed} {
		for _, rp := range group {
			lo, runs := axis(rp)
			for k := range runs {
				dirty = append(dirty, lo+k)
			}
		}
	}
	slices.Sort(dirty)
	dirty = slices.Compact(dirty)
	gone := make(map[*regionIdx]bool, len(removed))
	for _, rp := range removed {
		gone[rp] = true
	}
	out := spanTable{chunks: slices.Clone(tab.chunks)}
	// slot returns slot i of out, copying its chunk on first write.
	slot := func(i int) *[]span {
		c := i / tableChunk
		if out.chunks[c] == tab.chunks[c] {
			cp := *tab.chunks[c]
			out.chunks[c] = &cp
		}
		return &out.chunks[c][i%tableChunk]
	}
	for _, i := range dirty {
		var kept []span // fresh backing array: tab's slices are shared
		for _, s := range tab.at(i) {
			if !gone[s.reg] {
				kept = append(kept, s)
			}
		}
		*slot(i) = kept
	}
	for _, rp := range added {
		lo, runs := axis(rp)
		for k, rr := range runs {
			sl := slot(lo + k)
			for _, r := range rr {
				*sl = append(*sl, span{lo: r.lo, hi: r.hi, reg: rp})
			}
		}
	}
	for _, i := range dirty {
		sortSpans(*slot(i))
	}
	return out
}

func sortSpans(s []span) {
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
}

// sourcesOf returns the formation's own region list that forms the
// obstacles of a label model: disabled regions for ModelRegions, faulty
// blocks for ModelBlocks. Their pointers are stable across deltas for
// unchanged components. stable is false for the other models, whose
// obstacles are synthesized fault components.
func sourcesOf(res core.Formation, model routing.Model) (srcs []*region.Region, stable bool) {
	switch model {
	case routing.ModelRegions:
		return res.DisabledRegions(), true
	case routing.ModelBlocks:
		return res.FaultyBlocks(), true
	}
	return nil, false
}

// conn8Components splits the fault set into 8-connected components
// (wrap-aware on tori), in deterministic order: the ModelFaultsOnly
// obstacles, synthesized here with no stable source pointers.
func conn8Components(res core.Formation) []*grid.PointSet {
	topo := res.Topology()
	pts := res.FaultPoints()
	seen := make(map[grid.Point]bool, len(pts))
	var comps []*grid.PointSet
	for _, p := range pts {
		if seen[p] {
			continue
		}
		comp := grid.NewPointSet()
		queue := []grid.Point{p}
		seen[p] = true
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			comp.Add(q)
			for dx := -1; dx <= 1; dx++ {
				for dy := -1; dy <= 1; dy++ {
					if dx == 0 && dy == 0 {
						continue
					}
					n := topo.Wrap(grid.Pt(q.X+dx, q.Y+dy))
					if topo.Contains(n) && res.IsFaulty(n) && !seen[n] {
						seen[n] = true
						queue = append(queue, n)
					}
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// Fingerprint serializes the index's complete content deterministically:
// regions in obstacle order with their interval runs, corner arrays and
// boundary rings, then the global row/column tables with spans naming
// regions by obstacle position. The incremental differential tests pin
// Rebuild output against a from-scratch Compile with string equality, so
// pointer sharing can never hide content drift.
func (ix *Index) Fingerprint() string {
	regNo := make(map[*regionIdx]int, len(ix.regs))
	for i, rp := range ix.regs {
		regNo[rp] = i
	}
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s maxHops=%d w=%d h=%d torus=%v regions=%d\n",
		ix.model, ix.maxHops, ix.w, ix.h, ix.torus, len(ix.regs))
	for i, rp := range ix.regs {
		fmt.Fprintf(&b, "region %d bounds=(%d,%d)-(%d,%d) size=%d\n",
			i, rp.bounds.MinX, rp.bounds.MinY, rp.bounds.MaxX, rp.bounds.MaxY, rp.size)
		for y, runs := range rp.rowRuns {
			for _, r := range runs {
				fmt.Fprintf(&b, " row %d: [%d,%d]\n", rp.bounds.MinY+y, r.lo, r.hi)
			}
		}
		for x, runs := range rp.colRuns {
			for _, r := range runs {
				fmt.Fprintf(&b, " col %d: [%d,%d]\n", rp.bounds.MinX+x, r.lo, r.hi)
			}
		}
		fmt.Fprintf(&b, " corners %v\n", rp.corners)
		for ri, ring := range rp.rings {
			fmt.Fprintf(&b, " ring %d:", ri)
			for _, s := range ring {
				fmt.Fprintf(&b, " %v%s", s.p, s.h)
			}
			fmt.Fprintln(&b)
		}
	}
	dumpTable := func(name string, tab spanTable, n int) {
		for i := 0; i < n; i++ {
			for _, s := range tab.at(i) {
				fmt.Fprintf(&b, "%s %d: [%d,%d] reg=%d\n", name, i, s.lo, s.hi, regNo[s.reg])
			}
		}
	}
	dumpTable("rows", ix.rows, ix.h)
	dumpTable("cols", ix.cols, ix.w)
	return b.String()
}
