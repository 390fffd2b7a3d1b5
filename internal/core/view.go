package core

import (
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/region"
)

// Formation is the read-only face of a formation result that routing,
// the route index and the serving layer consume. *Result (the
// materialized []bool export) and *View (a session's paged serving
// snapshot) both implement it, so every consumer keeps one code path
// for either representation.
type Formation interface {
	// Topology returns the machine.
	Topology() *mesh.Topology
	// IsFaulty, IsUnsafe and IsEnabled read one node's fault state and
	// phase-1/phase-2 labels. p must lie inside the machine.
	IsFaulty(p grid.Point) bool
	IsUnsafe(p grid.Point) bool
	IsEnabled(p grid.Point) bool
	// FaultPoints returns the faults in canonical row-major order, in a
	// fresh slice.
	FaultPoints() []grid.Point
	// FaultyBlocks and DisabledRegions return the phase-1 blocks and
	// phase-2 regions in canonical order. Read-only.
	FaultyBlocks() []*region.Region
	DisabledRegions() []*region.Region
}

// Topology returns the machine (Formation).
func (r *Result) Topology() *mesh.Topology { return r.Topo }

// FaultPoints returns the faults in canonical order (Formation).
func (r *Result) FaultPoints() []grid.Point { return r.Faults.Points() }

// FaultyBlocks returns r.Blocks (Formation).
func (r *Result) FaultyBlocks() []*region.Region { return r.Blocks }

// DisabledRegions returns r.Regions (Formation).
func (r *Result) DisabledRegions() []*region.Region { return r.Regions }

// View is an immutable snapshot of a Session's formation, built for
// publication: the unsafe, enabled and fault planes are paged packed
// bit planes (grid.PagedBits) that share every page no delta touched
// with the previous view, and the block and region lists are the
// session's own (regions are replaced, never mutated, by deltas). A
// view therefore costs O(changed pages) to take, where Session.Result
// copies the whole mesh, and it stays valid and unchanged across any
// number of later deltas. View.Result materializes the equivalent
// Result when a caller needs the []bool form.
type View struct {
	topo                    *mesh.Topology
	unsafe, enabled, faulty *grid.PagedBits
	blocks, regions         []*region.Region
	rounds1, rounds2        int
}

// View snapshots the session's current formation as an immutable paged
// view. It copies only the plane pages written since the previous View
// call and shares the rest, so a single-point delta's view costs a few
// KiB regardless of mesh size. Like Result, it must be called from the
// session's mutating goroutine; the returned view may then be read from
// any goroutine.
func (s *Session) View() *View {
	f := s.field
	pl := f.Freeze()
	r1, r2 := f.InitialRounds()
	return &View{
		topo:   f.Topo(),
		unsafe: pl.Unsafe, enabled: pl.Enabled, faulty: pl.Faulty,
		blocks: f.Blocks(), regions: f.Regions(),
		rounds1: r1, rounds2: r2,
	}
}

// Topology returns the machine.
func (v *View) Topology() *mesh.Topology { return v.topo }

// IsFaulty reports whether p is faulty.
func (v *View) IsFaulty(p grid.Point) bool { return v.at(v.faulty, p) }

// IsUnsafe reports whether p is unsafe (phase 1).
func (v *View) IsUnsafe(p grid.Point) bool { return v.at(v.unsafe, p) }

// IsEnabled reports whether p is enabled (phase 2).
func (v *View) IsEnabled(p grid.Point) bool { return v.at(v.enabled, p) }

// at reads p from a plane, rejecting points outside the machine the way
// Result's index lookups do.
func (v *View) at(pl *grid.PagedBits, p grid.Point) bool {
	v.topo.Index(p)
	return pl.Get(p.X, p.Y)
}

// FaultPoints returns the faults in canonical row-major order.
func (v *View) FaultPoints() []grid.Point { return v.faulty.AppendPoints(nil) }

// FaultCount returns the number of faulty nodes.
func (v *View) FaultCount() int { return v.faulty.Count() }

// FaultyBlocks returns the faulty blocks in canonical order. Read-only.
func (v *View) FaultyBlocks() []*region.Region { return v.blocks }

// DisabledRegions returns the disabled regions in canonical order.
// Read-only.
func (v *View) DisabledRegions() []*region.Region { return v.regions }

// UnsafePlane, EnabledPlane and FaultPlane return the packed pages, for
// encoders that write the BitGrid word layout directly.
func (v *View) UnsafePlane() *grid.PagedBits  { return v.unsafe }
func (v *View) EnabledPlane() *grid.PagedBits { return v.enabled }
func (v *View) FaultPlane() *grid.PagedBits   { return v.faulty }

// DisabledNonfaultyCount returns the number of nonfaulty nodes left
// disabled, as Result.DisabledNonfaultyCount, by word popcounts: unsafe
// nonfaulty nodes minus the unsafe ones reactivated (faulty nodes are
// never enabled).
func (v *View) DisabledNonfaultyCount() int {
	return v.unsafe.CountAndNot(v.faulty) - v.unsafe.CountAnd(v.enabled)
}

// Result materializes the view as a Result, identical to what
// Session.Result returned at the same state: fresh fault set and label
// slices, shared block and region structures.
func (v *View) Result() *Result {
	return &Result{
		Topo:         v.topo,
		Faults:       grid.PointSetOf(v.FaultPoints()...),
		Unsafe:       v.unsafe.Bools(nil),
		Enabled:      v.enabled.Bools(nil),
		Blocks:       v.blocks,
		Regions:      v.regions,
		RoundsPhase1: v.rounds1,
		RoundsPhase2: v.rounds2,
	}
}
