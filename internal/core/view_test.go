package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/routeidx"
	"ocpmesh/internal/routing"
)

// churnStep applies one random single- or multi-point add/remove delta.
func churnStep(t *testing.T, s *core.Session, rng *rand.Rand) {
	t.Helper()
	topo := s.Topo()
	var pts []grid.Point
	for k := rng.Intn(3) + 1; k > 0; k-- {
		pts = append(pts, grid.Pt(rng.Intn(topo.Width()), rng.Intn(topo.Height())))
	}
	var err error
	if rng.Intn(3) == 0 && s.Faults().Len() > 0 {
		faults := s.Faults().Points()
		_, err = s.RemoveFaults(faults[rng.Intn(len(faults))])
	} else {
		_, err = s.AddFaults(pts...)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// assertViewMatches pins a view against the materialized Result of the
// same state: every plane cell, the fault list, the region lists by
// pointer, and the popcount-derived counters.
func assertViewMatches(t *testing.T, tag string, v *core.View, res *core.Result) {
	t.Helper()
	if got := v.UnsafePlane().Bools(nil); !slices.Equal(got, res.Unsafe) {
		t.Fatalf("%s: view unsafe plane differs from Result", tag)
	}
	if got := v.EnabledPlane().Bools(nil); !slices.Equal(got, res.Enabled) {
		t.Fatalf("%s: view enabled plane differs from Result", tag)
	}
	for _, p := range res.Topo.Points() {
		if v.IsFaulty(p) != res.IsFaulty(p) || v.IsUnsafe(p) != res.IsUnsafe(p) || v.IsEnabled(p) != res.IsEnabled(p) {
			t.Fatalf("%s: view and Result disagree at %v", tag, p)
		}
	}
	if got, want := v.FaultPoints(), res.FaultPoints(); !slices.Equal(got, want) {
		t.Fatalf("%s: fault points %v, want %v", tag, got, want)
	}
	if v.FaultCount() != res.Faults.Len() {
		t.Fatalf("%s: fault count %d, want %d", tag, v.FaultCount(), res.Faults.Len())
	}
	if !slices.Equal(v.FaultyBlocks(), res.Blocks) || !slices.Equal(v.DisabledRegions(), res.Regions) {
		t.Fatalf("%s: view region lists are not the session's", tag)
	}
	if got, want := v.DisabledNonfaultyCount(), res.DisabledNonfaultyCount(); got != want {
		t.Fatalf("%s: disabled nonfaulty %d, want %d", tag, got, want)
	}
	m := v.Result()
	if !m.Faults.Equal(res.Faults) || !slices.Equal(m.Unsafe, res.Unsafe) || !slices.Equal(m.Enabled, res.Enabled) ||
		m.RoundsPhase1 != res.RoundsPhase1 || m.RoundsPhase2 != res.RoundsPhase2 {
		t.Fatalf("%s: View.Result differs from Session.Result", tag)
	}
}

// TestViewDifferential churns sessions on the node (sequential) and
// bitset engines, on meshes and tori whose widths straddle a word
// boundary (63/64/65: padding lanes, exact fit, one spill lane), and
// requires every view to equal Session.Result at the same state.
func TestViewDifferential(t *testing.T) {
	for _, engine := range []core.EngineKind{core.EngineSequential, core.EngineBitset} {
		for _, kind := range []mesh.Kind{mesh.Mesh2D, mesh.Torus2D} {
			for _, w := range []int{63, 64, 65} {
				t.Run(fmt.Sprintf("%s/%s/w=%d", engine, kind, w), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(w)))
					cfg := core.Config{Width: w, Height: 9, Kind: kind, Engine: engine, Workers: 1}
					s, err := core.NewSession(cfg, []grid.Point{grid.Pt(w-1, 4), grid.Pt(0, 4), grid.Pt(w/2, 0)})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					assertViewMatches(t, "initial", s.View(), s.Result())
					for step := 0; step < 60; step++ {
						churnStep(t, s, rng)
						assertViewMatches(t, fmt.Sprintf("step %d", step), s.View(), s.Result())
					}
				})
			}
		}
	}
}

// TestViewImmutable retains one view, keeps readers on it while 100
// later deltas publish newer views (the race detector flags any page
// the session still writes), and then requires the retained view to be
// byte-identical to what it held when taken. Pages no delta touched
// must be shared with the newest view.
func TestViewImmutable(t *testing.T) {
	cfg := core.Config{Width: 130, Height: 70, Engine: core.EngineBitset, Workers: 1}
	s, err := core.NewSession(cfg, []grid.Point{grid.Pt(10, 10), grid.Pt(11, 11), grid.Pt(100, 50)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		churnStep(t, s, rng)
	}
	kept := s.View()
	encode := func(v *core.View) []byte {
		b := v.UnsafePlane().AppendLE(nil)
		b = v.EnabledPlane().AppendLE(b)
		return v.FaultPlane().AppendLE(b)
	}
	want := encode(kept)
	wantRes := kept.Result()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !bytes.Equal(encode(kept), want) {
					t.Error("retained view changed under later deltas")
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		churnStep(t, s, rng)
		s.View()
	}
	close(stop)
	wg.Wait()
	if !bytes.Equal(encode(kept), want) {
		t.Fatal("retained view changed under later deltas")
	}
	assertViewMatches(t, "retained", kept, wantRes)

	// One more delta, far from every other fault, copies only its own
	// fault page and shares the rest.
	before := s.View()
	if _, err := s.AddFaults(grid.Pt(129, 69)); err != nil {
		t.Fatal(err)
	}
	after := s.View()
	pages := (before.FaultPlane().Words() + grid.PageWords - 1) / grid.PageWords
	shared := 0
	for pi := 0; pi < pages; pi++ {
		if after.FaultPlane().SharesPage(before.FaultPlane(), pi) {
			shared++
		}
	}
	if shared != pages-1 {
		t.Fatalf("fault plane shares %d of %d pages after a one-point delta, want %d", shared, pages, pages-1)
	}
}

// allocBytes returns the bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestViewAllocation pins the point of the paged view: publishing a
// single-point delta allocates a few KiB whatever the mesh size, where
// Result copies both label planes (2·n² bytes).
func TestViewAllocation(t *testing.T) {
	for _, n := range []int{128, 1024} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			cfg := core.Config{Width: n, Height: n, Engine: core.EngineBitset, Workers: 1}
			s, err := core.NewSession(cfg, []grid.Point{grid.Pt(5, 5), grid.Pt(6, 6), grid.Pt(n-10, n-10)})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.View() // the first view copies every page
			var worst uint64
			for _, p := range []grid.Point{grid.Pt(7, 7), grid.Pt(n/2, n/2), grid.Pt(n-11, n-11)} {
				if _, err := s.AddFaults(p); err != nil {
					t.Fatal(err)
				}
				worst = max(worst, allocBytes(func() { s.View() }))
				if _, err := s.RemoveFaults(p); err != nil {
					t.Fatal(err)
				}
				worst = max(worst, allocBytes(func() { s.View() }))
			}
			res := allocBytes(func() { s.Result() })
			t.Logf("n=%d: View %d B per delta (worst), Result %d B", n, worst, res)
			if worst > 16<<10 {
				t.Fatalf("n=%d: a single-point delta's View allocated %d B, want <= 16 KiB", n, worst)
			}
		})
	}
}

// TestViewIndexParity compiles the route index over a view and over the
// equal materialized Result, and over an incremental Rebuild chain fed
// views: every fingerprint must match the from-scratch Result compile.
func TestViewIndexParity(t *testing.T) {
	for _, kind := range []mesh.Kind{mesh.Mesh2D, mesh.Torus2D} {
		cfg := core.Config{Width: 65, Height: 40, Kind: kind, Engine: core.EngineBitset, Workers: 1}
		s, err := core.NewSession(cfg, []grid.Point{grid.Pt(10, 10), grid.Pt(11, 12), grid.Pt(40, 30)})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		chain := routeidx.Compile(s.View(), routing.ModelRegions, routeidx.Options{})
		for step := 0; step < 30; step++ {
			churnStep(t, s, rng)
			v := s.View()
			for _, model := range []routing.Model{routing.ModelRegions, routing.ModelBlocks, routing.ModelFaultsOnly} {
				got := routeidx.Compile(v, model, routeidx.Options{}).Fingerprint()
				want := routeidx.Compile(v.Result(), model, routeidx.Options{}).Fingerprint()
				if got != want {
					t.Fatalf("%s step %d %s: view index differs from Result index", kind, step, model)
				}
			}
			chain = chain.Rebuild(v)
			if chain.Fingerprint() != routeidx.Compile(s.Result(), routing.ModelRegions, routeidx.Options{}).Fingerprint() {
				t.Fatalf("%s step %d: incremental rebuild over views differs from a fresh compile", kind, step)
			}
		}
		s.Close()
	}
}
