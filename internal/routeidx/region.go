package routeidx

import (
	"sort"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/routing"
)

// xrun is one maximal interval of region cells within a single row or
// column of the region's bounding box.
type xrun struct{ lo, hi int32 }

// ringStep is one state of the wall-following automaton: the cell the
// walker stands on and the heading it arrived with. It doubles as the
// key of the ring position map.
type ringStep struct {
	p grid.Point
	h mesh.Direction
}

// ringPos locates a wall state on one of a region's boundary rings.
type ringPos struct {
	ring, idx int32
}

// regionIdx is the compiled form of one obstacle. It is a pure function
// of (topology, cell set): nothing here depends on other regions, which
// is exactly why an incremental rebuild may carry a regionIdx over
// unchanged whenever the region's own cells did not change — the result
// is byte-identical to recompiling, by construction.
type regionIdx struct {
	cells  *grid.PointSet
	bounds grid.Rect
	size   int
	// rowRuns[y-bounds.MinY] and colRuns[x-bounds.MinX] hold the sorted
	// maximal cell intervals of each row/column — the region's
	// contribution to the global interval tables.
	rowRuns [][]xrun
	colRuns [][]xrun
	// corners are the cells of the boundary rings where the heading
	// changes, sorted canonically — the compressed corner array of the
	// contour.
	corners []grid.Point
	// rings are the wall-following contour cycles of the region in
	// (cell, heading) state space, traced by Detour's right-hand
	// automaton on the idealized map containing only this region's cells
	// and the mesh borders. pos maps each on-cycle state to its ring and
	// offset; states whose trajectory never closed (rare rho-shaped
	// tails) are absent and route via the inline automaton instead.
	rings [][]ringStep
	pos   map[ringStep]ringPos
}

// compileRegion builds the compiled form of one obstacle.
func compileRegion(topo *mesh.Topology, cells *grid.PointSet) *regionIdx {
	r := &regionIdx{
		cells:  cells,
		bounds: cells.Bounds(),
		size:   cells.Len(),
	}
	pts := cells.Points()
	grid.SortPoints(pts) // row-major: y, then x

	r.rowRuns = make([][]xrun, r.bounds.MaxY-r.bounds.MinY+1)
	for i := 0; i < len(pts); {
		j := i + 1
		for j < len(pts) && pts[j].Y == pts[i].Y && pts[j].X == pts[j-1].X+1 {
			j++
		}
		y := pts[i].Y - r.bounds.MinY
		r.rowRuns[y] = append(r.rowRuns[y], xrun{lo: int32(pts[i].X), hi: int32(pts[j-1].X)})
		i = j
	}

	colPts := append([]grid.Point(nil), pts...)
	sort.Slice(colPts, func(i, j int) bool {
		if colPts[i].X != colPts[j].X {
			return colPts[i].X < colPts[j].X
		}
		return colPts[i].Y < colPts[j].Y
	})
	r.colRuns = make([][]xrun, r.bounds.MaxX-r.bounds.MinX+1)
	for i := 0; i < len(colPts); {
		j := i + 1
		for j < len(colPts) && colPts[j].X == colPts[i].X && colPts[j].Y == colPts[j-1].Y+1 {
			j++
		}
		x := colPts[i].X - r.bounds.MinX
		r.colRuns[x] = append(r.colRuns[x], xrun{lo: int32(colPts[i].Y), hi: int32(colPts[j-1].Y)})
		i = j
	}

	// Trace the wall-following contour from every possible wall-entry
	// state: a greedy walker blocked stepping from c into region cell b
	// enters wall mode at c heading TurnLeft(direction of the blocked
	// step). A trajectory that touches the mesh border may lawfully
	// follow it (Detour does the same), so the budget covers the border
	// circumference as well as the region shell.
	budget := 8*r.size + 8*(topo.Width()+topo.Height()) + 64
	var starts []ringStep
	for _, b := range pts {
		for _, d := range mesh.Directions {
			c, ok := topo.NeighborIn(b, d)
			if !ok || cells.Has(c) {
				continue
			}
			blocked := d.Opposite() // the greedy step c -> b that got blocked
			starts = append(starts, ringStep{p: c, h: routing.TurnLeft(blocked)})
		}
	}
	// The rings visit about one state per wall-entry state, so both maps
	// are sized once instead of growing through rehashes.
	r.pos = make(map[ringStep]ringPos, len(starts))
	seen := make(map[ringStep]int32, len(starts))
	for _, st := range starts {
		r.trace(topo, st, budget, seen)
	}

	cornerSet := grid.NewPointSet()
	for _, ring := range r.rings {
		for i, s := range ring {
			next := ring[(i+1)%len(ring)]
			if next.h != s.h {
				cornerSet.Add(s.p)
			}
		}
	}
	r.corners = cornerSet.Points()
	grid.SortPoints(r.corners)
	return r
}

// trace follows the idealized wall-following automaton from start until
// the trajectory closes into a cycle, merges into an already-registered
// cycle, or exhausts the budget. Only the cyclic part is registered:
// ring following relies on modular successor arithmetic, which is
// meaningless for tail states. seen is scratch shared across calls.
func (r *regionIdx) trace(topo *mesh.Topology, start ringStep, budget int, seen map[ringStep]int32) {
	if _, ok := r.pos[start]; ok {
		return
	}
	clear(seen)
	var traj []ringStep
	st := start
	for len(traj) <= budget {
		if j, ok := seen[st]; ok {
			ring := append([]ringStep(nil), traj[j:]...)
			ri := int32(len(r.rings))
			for i, s := range ring {
				r.pos[s] = ringPos{ring: ri, idx: int32(i)}
			}
			r.rings = append(r.rings, ring)
			return
		}
		if _, ok := r.pos[st]; ok {
			return // tail into a previously registered cycle
		}
		seen[st] = int32(len(traj))
		traj = append(traj, st)
		nst, ok := r.wallStep(topo, st)
		if !ok {
			return // isolated pocket of the idealized map
		}
		st = nst
	}
}

// wallStep is one step of Detour's right-hand rule on the idealized map:
// prefer turning right, then straight, then left, then back, taking the
// first direction whose neighbor exists and is not a region cell.
func (r *regionIdx) wallStep(topo *mesh.Topology, st ringStep) (ringStep, bool) {
	for _, d := range [4]mesh.Direction{routing.TurnRight(st.h), st.h, routing.TurnLeft(st.h), st.h.Opposite()} {
		if next, ok := topo.NeighborIn(st.p, d); ok && !r.cells.Has(next) {
			return ringStep{p: next, h: d}, true
		}
	}
	return ringStep{}, false
}

// detourCosts returns the hop cost of traveling from ring offset i to
// offset j along the precomputed (clockwise, obstacle-on-the-right)
// sense and against it. Rings are cyclic, so both are O(1) modular
// arithmetic — the precomputed detour-cost table of the contour.
func detourCosts(ringLen, i, j int) (cw, ccw int) {
	cw = ((j-i)%ringLen + ringLen) % ringLen
	ccw = (ringLen - cw) % ringLen
	return cw, ccw
}

// DetourCosts reports the clockwise and counterclockwise hop costs
// between two wall states (cell + arrival heading) on the boundary ring
// of the region owning forbidden cell b. ok is false when b is not a
// forbidden cell of the index or either state is not on a precomputed
// ring. It exposes the ring cost tables for planning and tests; the
// router itself replays rings step by step because leave-checks can cut
// an episode short at any offset.
func (ix *Index) DetourCosts(b grid.Point, from, to grid.Point, fromHeading, toHeading mesh.Direction) (cw, ccw int, ok bool) {
	if b.Y < 0 || b.Y >= ix.h {
		return 0, 0, false
	}
	var rp *regionIdx
	for _, s := range ix.rows.at(b.Y) {
		if int(s.lo) <= b.X && b.X <= int(s.hi) {
			rp = s.reg
			break
		}
	}
	if rp == nil {
		return 0, 0, false
	}
	pf, okf := rp.pos[ringStep{p: from, h: fromHeading}]
	pt, okt := rp.pos[ringStep{p: to, h: toHeading}]
	if !okf || !okt || pf.ring != pt.ring {
		return 0, 0, false
	}
	cw, ccw = detourCosts(len(rp.rings[pf.ring]), int(pf.idx), int(pt.idx))
	return cw, ccw, true
}

// Corners returns the sorted corner array of the region owning forbidden
// cell b (nil when b is not forbidden). The caller must not mutate it.
func (ix *Index) Corners(b grid.Point) []grid.Point {
	if b.Y < 0 || b.Y >= ix.h {
		return nil
	}
	for _, s := range ix.rows.at(b.Y) {
		if int(s.lo) <= b.X && b.X <= int(s.hi) {
			return s.reg.corners
		}
	}
	return nil
}
