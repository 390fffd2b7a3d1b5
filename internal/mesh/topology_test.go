package mesh

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"ocpmesh/internal/grid"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5, Mesh2D); err == nil {
		t.Fatal("zero width must fail")
	}
	if _, err := New(5, -1, Mesh2D); err == nil {
		t.Fatal("negative height must fail")
	}
	if _, err := New(2, 5, Torus2D); err == nil {
		t.Fatal("torus smaller than 3 must fail")
	}
	if _, err := New(5, 5, Kind(7)); err == nil {
		t.Fatal("unknown kind must fail")
	}
	if _, err := New(1, 1, Mesh2D); err != nil {
		t.Fatalf("1x1 mesh should be legal: %v", err)
	}
	// The node count 2^64 wraps to 0 in int arithmetic; it must be a
	// typed error, not a topology whose Size is 0.
	if _, err := New(1<<32, 1<<32, Mesh2D); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("overflowing dimensions: err %v, want ErrTooLarge", err)
	}
	if _, err := New(math.MaxInt, 2, Torus2D); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("overflowing torus: err %v, want ErrTooLarge", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic on invalid dimensions")
		}
	}()
	MustNew(0, 0, Mesh2D)
}

func TestIndexRoundTrip(t *testing.T) {
	m := MustNew(7, 5, Mesh2D)
	if m.Size() != 35 {
		t.Fatalf("Size = %d", m.Size())
	}
	seen := make(map[int]bool)
	for _, p := range m.Points() {
		i := m.Index(p)
		if i < 0 || i >= m.Size() || seen[i] {
			t.Fatalf("bad or duplicate index %d for %v", i, p)
		}
		seen[i] = true
		if m.PointAt(i) != p {
			t.Fatalf("PointAt(Index(%v)) = %v", p, m.PointAt(i))
		}
	}
}

func TestIndexPanicsOutside(t *testing.T) {
	m := MustNew(3, 3, Mesh2D)
	defer func() {
		if recover() == nil {
			t.Fatal("Index outside machine must panic")
		}
	}()
	m.Index(grid.Pt(3, 0))
}

func TestPointAtPanicsOutside(t *testing.T) {
	m := MustNew(3, 3, Mesh2D)
	defer func() {
		if recover() == nil {
			t.Fatal("PointAt outside range must panic")
		}
	}()
	m.PointAt(9)
}

func TestMeshNeighbors(t *testing.T) {
	m := MustNew(4, 4, Mesh2D)
	tests := []struct {
		p      grid.Point
		degree int
	}{
		{grid.Pt(0, 0), 2},
		{grid.Pt(3, 3), 2},
		{grid.Pt(0, 2), 3},
		{grid.Pt(2, 0), 3},
		{grid.Pt(1, 2), 4},
	}
	for _, tt := range tests {
		if got := m.Degree(tt.p); got != tt.degree {
			t.Errorf("Degree(%v) = %d, want %d", tt.p, got, tt.degree)
		}
		for _, q := range m.Neighbors(tt.p) {
			if !m.Contains(q) {
				t.Errorf("neighbor %v of %v outside machine", q, tt.p)
			}
			if tt.p.Dist(q) != 1 {
				t.Errorf("neighbor %v of %v not adjacent", q, tt.p)
			}
		}
	}
}

func TestTorusNeighborsWrap(t *testing.T) {
	tor := MustNew(5, 4, Torus2D)
	for _, p := range tor.Points() {
		if d := tor.Degree(p); d != 4 {
			t.Fatalf("torus Degree(%v) = %d, want 4", p, d)
		}
	}
	q, ok := tor.NeighborIn(grid.Pt(0, 0), West)
	if !ok || q != grid.Pt(4, 0) {
		t.Fatalf("west of origin on torus = %v, %t", q, ok)
	}
	q, ok = tor.NeighborIn(grid.Pt(2, 3), North)
	if !ok || q != grid.Pt(2, 0) {
		t.Fatalf("north wrap = %v, %t", q, ok)
	}
}

func TestMeshBoundaryLinks(t *testing.T) {
	m := MustNew(4, 4, Mesh2D)
	if _, ok := m.NeighborIn(grid.Pt(0, 0), West); ok {
		t.Fatal("west link off the mesh must not exist")
	}
	if _, ok := m.NeighborIn(grid.Pt(0, 0), East); !ok {
		t.Fatal("east link must exist")
	}
}

func TestGhosts(t *testing.T) {
	m := MustNew(3, 3, Mesh2D)
	for _, p := range []grid.Point{grid.Pt(-1, 0), grid.Pt(3, 2), grid.Pt(1, -1), grid.Pt(1, 3), grid.Pt(-1, -1), grid.Pt(3, 3)} {
		if !m.IsGhost(p) {
			t.Errorf("%v should be a ghost", p)
		}
	}
	for _, p := range []grid.Point{grid.Pt(0, 0), grid.Pt(2, 2), grid.Pt(-2, 0), grid.Pt(4, 1)} {
		if m.IsGhost(p) {
			t.Errorf("%v should not be a ghost", p)
		}
	}
	tor := MustNew(3, 3, Torus2D)
	if tor.IsGhost(grid.Pt(-1, 0)) {
		t.Fatal("torus has no ghosts")
	}
}

func TestMeshDist(t *testing.T) {
	m := MustNew(10, 10, Mesh2D)
	if d := m.Dist(grid.Pt(0, 0), grid.Pt(9, 9)); d != 18 {
		t.Fatalf("mesh Dist = %d", d)
	}
	tor := MustNew(10, 10, Torus2D)
	if d := tor.Dist(grid.Pt(0, 0), grid.Pt(9, 9)); d != 2 {
		t.Fatalf("torus Dist = %d, want 2 (wrap both ways)", d)
	}
	if d := tor.Dist(grid.Pt(0, 0), grid.Pt(5, 0)); d != 5 {
		t.Fatalf("torus Dist = %d, want 5", d)
	}
}

func TestDiameter(t *testing.T) {
	// Paper: 2(n-1) for an n x n mesh.
	if d := MustNew(100, 100, Mesh2D).Diameter(); d != 198 {
		t.Fatalf("100x100 mesh diameter = %d, want 198", d)
	}
	if d := MustNew(10, 4, Torus2D).Diameter(); d != 7 {
		t.Fatalf("torus diameter = %d, want 7", d)
	}
}

// The diameter must equal the maximum pairwise distance.
func TestDiameterMatchesPairwise(t *testing.T) {
	for _, kind := range []Kind{Mesh2D, Torus2D} {
		m := MustNew(5, 4, kind)
		maxD := 0
		pts := m.Points()
		for _, p := range pts {
			for _, q := range pts {
				if d := m.Dist(p, q); d > maxD {
					maxD = d
				}
			}
		}
		if maxD != m.Diameter() {
			t.Errorf("%v: max pairwise %d != Diameter %d", m, maxD, m.Diameter())
		}
	}
}

func TestTorusDistIsMetric(t *testing.T) {
	tor := MustNew(7, 5, Torus2D)
	f := func(a, b, c uint16) bool {
		p := tor.PointAt(int(a) % tor.Size())
		q := tor.PointAt(int(b) % tor.Size())
		r := tor.PointAt(int(c) % tor.Size())
		if tor.Dist(p, q) != tor.Dist(q, p) {
			return false
		}
		if (tor.Dist(p, q) == 0) != (p == q) {
			return false
		}
		return tor.Dist(p, r) <= tor.Dist(p, q)+tor.Dist(q, r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborDistOneOnTorus(t *testing.T) {
	tor := MustNew(6, 3, Torus2D)
	for _, p := range tor.Points() {
		for _, q := range tor.Neighbors(p) {
			if tor.Dist(p, q) != 1 {
				t.Fatalf("torus neighbor %v of %v at distance %d", q, p, tor.Dist(p, q))
			}
		}
	}
}

func TestDirection(t *testing.T) {
	for _, d := range Directions {
		if d.Opposite().Opposite() != d {
			t.Errorf("double Opposite of %v broken", d)
		}
		sum := d.Delta().Add(d.Opposite().Delta())
		if sum != grid.Pt(0, 0) {
			t.Errorf("%v delta and opposite delta must cancel", d)
		}
	}
	if !West.Horizontal() || !East.Horizontal() || North.Horizontal() || South.Horizontal() {
		t.Error("Horizontal wrong")
	}
	names := map[Direction]string{West: "west", East: "east", South: "south", North: "north"}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("String(%d) = %q", int(d), d.String())
		}
	}
}

func TestKindString(t *testing.T) {
	if Mesh2D.String() != "mesh" || Torus2D.String() != "torus" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind name wrong")
	}
	if s := MustNew(4, 5, Mesh2D).String(); s != "4x5 mesh" {
		t.Fatalf("topology String = %q", s)
	}
}

func TestWrap(t *testing.T) {
	tor := MustNew(5, 3, Torus2D)
	if got := tor.Wrap(grid.Pt(-1, 3)); got != grid.Pt(4, 0) {
		t.Fatalf("Wrap = %v", got)
	}
	if got := tor.Wrap(grid.Pt(12, -4)); got != grid.Pt(2, 2) {
		t.Fatalf("Wrap = %v", got)
	}
	m := MustNew(5, 3, Mesh2D)
	if got := m.Wrap(grid.Pt(-1, 3)); got != grid.Pt(-1, 3) {
		t.Fatalf("mesh Wrap must be identity, got %v", got)
	}
}
