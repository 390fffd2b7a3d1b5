package serve_test

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/serve"
)

// packBools is the snapshot and labels wire encoding computed the
// direct way, from a materialized []bool plane: pack into the BitGrid
// word layout, little-endian words, base64. Served encodings of the
// paged view must match it byte for byte.
func packBools(w, h int, labels []bool) string {
	bg := grid.NewBitGrid(w, h)
	bg.SetBools(labels)
	var raw []byte
	for _, word := range bg.Words() {
		raw = binary.LittleEndian.AppendUint64(raw, word)
	}
	return base64.StdEncoding.EncodeToString(raw)
}

// TestServeViewCopyOnWrite pins copy-on-write publication: a delta's
// snapshot shares every page the delta did not write with the previous
// snapshot, the previous snapshot keeps serving exactly what it served
// before, and the paged encodings equal the []bool packing.
func TestServeViewCopyOnWrite(t *testing.T) {
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()
	const n = 200 // 4 words per row, 800 words, 13 pages per plane
	tn, _, err := svc.Create("cow", serve.TenantConfig{Width: n, Height: n},
		[]grid.Point{grid.Pt(10, 10), grid.Pt(11, 11), grid.Pt(150, 180)})
	if err != nil {
		t.Fatal(err)
	}
	s0 := tn.Snapshot()
	res0 := s0.View.Result()
	enc0 := tn.TakeSnapshot()
	if enc0.Unsafe != packBools(n, n, res0.Unsafe) || enc0.Enabled != packBools(n, n, res0.Enabled) {
		t.Fatal("snapshot encoding of the paged view differs from the []bool packing")
	}

	if _, err := svc.Apply("cow", "add", []grid.Point{grid.Pt(12, 12)}); err != nil {
		t.Fatal(err)
	}
	s1 := tn.Snapshot()
	for _, pl := range []struct {
		name      string
		old, next *grid.PagedBits
	}{
		{"unsafe", s0.View.UnsafePlane(), s1.View.UnsafePlane()},
		{"enabled", s0.View.EnabledPlane(), s1.View.EnabledPlane()},
		{"faulty", s0.View.FaultPlane(), s1.View.FaultPlane()},
	} {
		pages := (pl.old.Words() + grid.PageWords - 1) / grid.PageWords
		shared := 0
		for pi := 0; pi < pages; pi++ {
			if pl.next.SharesPage(pl.old, pi) {
				shared++
			}
		}
		if shared < pages-1 {
			t.Errorf("%s plane: a one-point delta shared %d of %d pages, want >= %d", pl.name, shared, pages, pages-1)
		}
	}

	// The old snapshot is untouched; the new one is the delta's state.
	if again := s0.View.Result(); !slices.Equal(again.Unsafe, res0.Unsafe) || !slices.Equal(again.Enabled, res0.Enabled) ||
		!again.Faults.Equal(res0.Faults) {
		t.Fatal("publishing a delta changed the previous snapshot")
	}
	res1 := s1.View.Result()
	if !res1.Faults.Has(grid.Pt(12, 12)) || res0.Faults.Has(grid.Pt(12, 12)) {
		t.Fatal("delta missing from the new snapshot or leaked into the old one")
	}
	enc1 := tn.TakeSnapshot()
	if enc1.Unsafe != packBools(n, n, res1.Unsafe) || enc1.Enabled != packBools(n, n, res1.Enabled) {
		t.Fatal("snapshot encoding after the delta differs from the []bool packing")
	}
	fresh, err := core.FormOn(core.Config{Width: n, Height: n}, res1.Topo, res1.Faults)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res1.Unsafe, fresh.Unsafe) || !slices.Equal(res1.Enabled, fresh.Enabled) {
		t.Fatal("published view differs from a fresh formation")
	}
}

// TestServeSizeOverflow creates and restores tenants whose node count
// overflows int (2^32 x 2^32 wraps to 0): both must fail with the typed
// ErrTooLarge, not panic allocating the planes.
func TestServeSizeOverflow(t *testing.T) {
	svc := serve.New(serve.Options{Shards: 1})
	defer svc.Close()
	huge := serve.TenantConfig{Width: 1 << 32, Height: 1 << 32}
	if _, _, err := svc.Create("x", huge, nil); !errors.Is(err, serve.ErrTooLarge) {
		t.Fatalf("create: err %v, want ErrTooLarge", err)
	}
	if _, err := svc.Restore("x", &serve.TenantSnapshot{Version: 1, Config: huge}); !errors.Is(err, serve.ErrTooLarge) {
		t.Fatalf("restore: err %v, want ErrTooLarge", err)
	}
}
