package mesh

import (
	"errors"
	"fmt"
	"math"

	"ocpmesh/internal/grid"
)

// Kind selects between the bounded mesh and the wraparound torus.
type Kind int

const (
	// Mesh2D is the bounded 2-D mesh with a ghost ring along its border.
	Mesh2D Kind = iota
	// Torus2D is the 2-D torus: every node has exactly four neighbors and
	// there is no boundary, hence no ghost nodes (the paper notes the
	// boundary problem does not exist in 2-D tori).
	Torus2D
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Mesh2D:
		return "mesh"
	case Torus2D:
		return "torus"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrTooLarge reports dimensions whose node count Width*Height does not
// fit in an int: node indexes (Index) would wrap.
var ErrTooLarge = errors.New("mesh: node count overflows int")

// Topology describes a Width x Height 2-D mesh or torus.
type Topology struct {
	width, height int
	kind          Kind
}

// New returns a topology of the given dimensions. Width and height must be
// positive; a torus additionally needs both dimensions >= 3 so that the
// four neighbors of a node are distinct.
func New(width, height int, kind Kind) (*Topology, error) {
	if width < 1 || height < 1 {
		return nil, fmt.Errorf("mesh: dimensions must be positive, got %dx%d", width, height)
	}
	if width > math.MaxInt/height {
		return nil, fmt.Errorf("%w: %dx%d", ErrTooLarge, width, height)
	}
	if kind != Mesh2D && kind != Torus2D {
		return nil, fmt.Errorf("mesh: unknown kind %d", int(kind))
	}
	if kind == Torus2D && (width < 3 || height < 3) {
		return nil, fmt.Errorf("mesh: torus needs dimensions >= 3, got %dx%d", width, height)
	}
	return &Topology{width: width, height: height, kind: kind}, nil
}

// MustNew is New that panics on error, for tests and fixtures.
func MustNew(width, height int, kind Kind) *Topology {
	t, err := New(width, height, kind)
	if err != nil {
		panic(err)
	}
	return t
}

// Width returns the number of columns.
func (t *Topology) Width() int { return t.width }

// Height returns the number of rows.
func (t *Topology) Height() int { return t.height }

// Kind returns the topology kind.
func (t *Topology) Kind() Kind { return t.kind }

// Size returns the number of nodes.
func (t *Topology) Size() int { return t.width * t.height }

// Bounds returns the inclusive address rectangle of the machine.
func (t *Topology) Bounds() grid.Rect {
	return grid.NewRect(0, 0, t.width-1, t.height-1)
}

// Contains reports whether p is a machine node (ghosts excluded).
func (t *Topology) Contains(p grid.Point) bool {
	return p.X >= 0 && p.X < t.width && p.Y >= 0 && p.Y < t.height
}

// IsGhost reports whether p lies on the ghost ring: the four lines
// immediately adjacent to the mesh boundary. Ghost nodes are permanently
// safe and enabled but never participate in routing or labeling. A torus
// has no ghosts.
func (t *Topology) IsGhost(p grid.Point) bool {
	if t.kind == Torus2D || t.Contains(p) {
		return false
	}
	return p.X >= -1 && p.X <= t.width && p.Y >= -1 && p.Y <= t.height
}

// Index maps a machine node to a dense index in [0, Size).
func (t *Topology) Index(p grid.Point) int {
	if !t.Contains(p) {
		panic(fmt.Sprintf("mesh: %v outside %dx%d machine", p, t.width, t.height))
	}
	return p.Y*t.width + p.X
}

// PointAt is the inverse of Index.
func (t *Topology) PointAt(i int) grid.Point {
	if i < 0 || i >= t.Size() {
		panic(fmt.Sprintf("mesh: index %d out of range [0,%d)", i, t.Size()))
	}
	return grid.Pt(i%t.width, i/t.width)
}

// Wrap maps an arbitrary address onto the torus surface. For a plain mesh
// it returns p unchanged.
func (t *Topology) Wrap(p grid.Point) grid.Point {
	if t.kind != Torus2D {
		return p
	}
	return grid.Pt(mod(p.X, t.width), mod(p.Y, t.height))
}

// NeighborIn returns the machine node adjacent to p in direction d and
// true, or the zero point and false when the link leaves the machine (mesh
// boundary). On a torus the link wraps and the result is always a machine
// node.
func (t *Topology) NeighborIn(p grid.Point, d Direction) (grid.Point, bool) {
	q := p.Add(d.Delta())
	if t.kind == Torus2D {
		return t.Wrap(q), true
	}
	if t.Contains(q) {
		return q, true
	}
	return grid.Point{}, false
}

// Neighbors returns the machine neighbors of p in canonical direction
// order (west, east, south, north), omitting links that leave a bounded
// mesh.
func (t *Topology) Neighbors(p grid.Point) []grid.Point {
	return t.AppendNeighbors(p, make([]grid.Point, 0, 4))
}

// AppendNeighbors appends the machine neighbors of p to dst in canonical
// direction order and returns the extended slice. Flood fills that visit
// every cell of a region use it with a reused scratch slice, where the
// per-call allocation of Neighbors dominates.
func (t *Topology) AppendNeighbors(p grid.Point, dst []grid.Point) []grid.Point {
	for _, d := range Directions {
		if q, ok := t.NeighborIn(p, d); ok {
			dst = append(dst, q)
		}
	}
	return dst
}

// Degree returns the number of machine neighbors of p: 4 in the interior
// and on the whole torus, 3 on a mesh edge, 2 in a mesh corner.
func (t *Topology) Degree(p grid.Point) int { return len(t.Neighbors(p)) }

// Dist returns the minimal routing distance between two machine nodes:
// Manhattan distance on the mesh, wraparound Manhattan distance on the
// torus.
func (t *Topology) Dist(p, q grid.Point) int {
	if t.kind != Torus2D {
		return p.Dist(q)
	}
	dx := absInt(p.X - q.X)
	if w := t.width - dx; w < dx {
		dx = w
	}
	dy := absInt(p.Y - q.Y)
	if w := t.height - dy; w < dy {
		dy = w
	}
	return dx + dy
}

// Diameter returns the network diameter: 2(n-1) for an n x n mesh, per the
// paper, generalized to Width+Height-2 for rectangular meshes and
// floor(W/2)+floor(H/2) for tori.
func (t *Topology) Diameter() int {
	if t.kind == Torus2D {
		return t.width/2 + t.height/2
	}
	return t.width + t.height - 2
}

// Points returns all machine nodes in canonical row-major order.
func (t *Topology) Points() []grid.Point {
	return t.Bounds().Points()
}

// String describes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("%dx%d %s", t.width, t.height, t.kind)
}

func mod(v, m int) int {
	v %= m
	if v < 0 {
		v += m
	}
	return v
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
