package core

import (
	"math/rand"
	"testing"

	"ocpmesh/internal/grid"
)

// TestSessionMatchesForm churns a Session and checks Result() against a
// from-scratch Form after every delta — faults, labels, blocks, regions
// all bit for bit.
func TestSessionMatchesForm(t *testing.T) {
	cfg := Config{Width: 14, Height: 11}
	s, err := NewSession(cfg, []grid.Point{grid.Pt(3, 3), grid.Pt(4, 3), grid.Pt(9, 7)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var removed []grid.Point
	for step := 0; step < 20; step++ {
		p := grid.Pt(rng.Intn(cfg.Width), rng.Intn(cfg.Height))
		var derr error
		switch {
		case rng.Intn(3) == 0 && s.Faults().Len() > 0:
			pts := s.Faults().Points()
			q := pts[rng.Intn(len(pts))]
			removed = append(removed, q)
			_, derr = s.RemoveFaults(q)
		case rng.Intn(2) == 0 && len(removed) > 0:
			_, derr = s.AddFaults(removed[rng.Intn(len(removed))])
		default:
			_, derr = s.AddFaults(p)
		}
		if derr != nil {
			t.Fatalf("step %d: %v", step, derr)
		}

		got := s.Result()
		want, err := FormSet(cfg, s.Faults())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Faults.Equal(want.Faults) {
			t.Fatalf("step %d: fault sets differ", step)
		}
		for i := range want.Unsafe {
			if got.Unsafe[i] != want.Unsafe[i] || got.Enabled[i] != want.Enabled[i] {
				t.Fatalf("step %d: labels differ at %d", step, i)
			}
		}
		if len(got.Blocks) != len(want.Blocks) || len(got.Regions) != len(want.Regions) {
			t.Fatalf("step %d: %d blocks / %d regions, want %d / %d",
				step, len(got.Blocks), len(got.Regions), len(want.Blocks), len(want.Regions))
		}
		for i := range want.Blocks {
			if !got.Blocks[i].Nodes.Equal(want.Blocks[i].Nodes) {
				t.Fatalf("step %d: block %d differs", step, i)
			}
		}
		for i := range want.Regions {
			if !got.Regions[i].Nodes.Equal(want.Regions[i].Nodes) {
				t.Fatalf("step %d: region %d differs", step, i)
			}
		}
	}
}

// TestSessionResultIsolated checks that a Result snapshot survives
// later deltas unchanged.
func TestSessionResultIsolated(t *testing.T) {
	s, err := NewSession(Config{Width: 10, Height: 10}, []grid.Point{grid.Pt(5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Result()
	faultsBefore := snap.Faults.Clone()
	unsafeBefore := append([]bool(nil), snap.Unsafe...)
	if _, err := s.AddFaults(grid.Pt(5, 6), grid.Pt(6, 5), grid.Pt(4, 5)); err != nil {
		t.Fatal(err)
	}
	if !snap.Faults.Equal(faultsBefore) {
		t.Fatal("snapshot fault set mutated by a later delta")
	}
	for i := range unsafeBefore {
		if snap.Unsafe[i] != unsafeBefore[i] {
			t.Fatal("snapshot labels mutated by a later delta")
		}
	}
	if r1, r2 := snap.RoundsPhase1, snap.RoundsPhase2; r1 < 0 || r2 < 0 {
		t.Fatalf("bad initial rounds %d/%d", r1, r2)
	}
}

// TestSessionRejectsIgnoredWorkers pins the config validation: Workers
// set with an engine whose sessions would silently run every delta
// sequentially must be a construction error, never a silent discard.
// Engines that do use workers, and the unset/1 values, must pass.
func TestSessionRejectsIgnoredWorkers(t *testing.T) {
	base := Config{Width: 8, Height: 8}
	for _, engine := range []EngineKind{EngineSequential, EngineChannels} {
		cfg := base
		cfg.Engine = engine
		cfg.Workers = 2
		if _, err := NewSession(cfg, nil); err == nil {
			t.Fatalf("%s session accepted Workers=2", engine)
		}
		for _, ok := range []int{0, 1} {
			cfg.Workers = ok
			s, err := NewSession(cfg, nil)
			if err != nil {
				t.Fatalf("%s session rejected Workers=%d: %v", engine, ok, err)
			}
			s.Close()
		}
	}
	cfg := base
	cfg.Engine = EngineBitset
	cfg.Workers = 2
	s, err := NewSession(cfg, nil)
	if err != nil {
		t.Fatalf("%s session rejected Workers=2: %v", cfg.Engine, err)
	}
	s.Close()
}

// TestSessionClose: Close is idempotent, and a closed-then-reopened
// workflow (the sweep runner's per-replication pattern) keeps working.
func TestSessionClose(t *testing.T) {
	cfg := Config{Width: 10, Height: 10, Engine: EngineBitset, Workers: 2}
	for rep := 0; rep < 3; rep++ {
		s, err := NewSession(cfg, []grid.Point{grid.Pt(4, 4)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddFaults(grid.Pt(6, 6)); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s.Close() // idempotent
	}
}

// TestSessionGenerationAndOnDelta pins the delta-hook contract derived
// state maintainers rely on: Generation counts successful deltas only,
// OnDelta hooks fire synchronously in registration order with the
// applied delta, and neither fires for no-op validation errors.
func TestSessionGenerationAndOnDelta(t *testing.T) {
	s, err := NewSession(Config{Width: 10, Height: 10}, []grid.Point{grid.Pt(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Generation() != 0 {
		t.Fatalf("fresh generation %d", s.Generation())
	}
	var order []string
	var seen []Delta
	s.OnDelta(func(d Delta) { order = append(order, "a"); seen = append(seen, d) })
	s.OnDelta(func(Delta) { order = append(order, "b") })

	if _, err := s.AddFaults(grid.Pt(5, 5)); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 1 || len(seen) != 1 {
		t.Fatalf("after add: generation %d, hooks %d", s.Generation(), len(seen))
	}
	if _, err := s.RemoveFaults(grid.Pt(5, 5)); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 2 {
		t.Fatalf("after remove: generation %d", s.Generation())
	}
	if len(order) != 4 || order[0] != "a" || order[1] != "b" || order[2] != "a" || order[3] != "b" {
		t.Fatalf("hook order %v", order)
	}
}

// TestSessionRegionPointerStability pins the Result() sharing contract
// routeidx builds on: a delta far away from an existing region leaves
// that region's pointer identical across snapshots, while a delta
// touching it replaces the pointer.
func TestSessionRegionPointerStability(t *testing.T) {
	s, err := NewSession(Config{Width: 30, Height: 30}, []grid.Point{grid.Pt(5, 5), grid.Pt(6, 6)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.Result()
	if len(before.Regions) != 1 {
		t.Fatalf("fixture expectation broken: %d regions", len(before.Regions))
	}
	if _, err := s.AddFaults(grid.Pt(25, 25)); err != nil {
		t.Fatal(err)
	}
	after := s.Result()
	kept := false
	for _, r := range after.Regions {
		if r == before.Regions[0] {
			kept = true
		}
	}
	if !kept {
		t.Fatal("distant delta replaced an untouched region's pointer")
	}
	if _, err := s.AddFaults(grid.Pt(7, 5)); err != nil {
		t.Fatal(err)
	}
	final := s.Result()
	for _, r := range final.Regions {
		if r == before.Regions[0] {
			t.Fatal("delta adjacent to the region kept a stale pointer")
		}
	}
}
