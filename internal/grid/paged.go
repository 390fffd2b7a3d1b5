package grid

import (
	"encoding/binary"
	"math/bits"
)

// PageWords is the page size of a PagedBits plane, in words: 512 bytes,
// 4096 cells. A single-point fault delta touches a handful of words, so
// publishing it copies one or two pages per plane.
const PageWords = 64

// page is one fixed block of plane words. Pages are immutable once a
// PagedBits holds them; later snapshots share them by pointer.
type page = [PageWords]uint64

// zeroPage is the shared all-zero page: a full Freeze points every
// empty page at it (fault planes are mostly empty), and it is never
// written.
var zeroPage = new(page)

// PagedBits is an immutable snapshot of a BitGrid, split into fixed
// pages of PageWords words in the BitGrid word layout (row-major words,
// cell (x, y) at bit x%64 of word y*WordsPerRow()+x/64, padding bits
// zero). Successive snapshots of one grid share every page that no
// write touched in between, so a snapshot costs one page-table copy
// plus the dirty pages, not the whole plane. Nothing reachable from a
// PagedBits is ever written after it is built, so any number of
// goroutines may read it.
type PagedBits struct {
	width, height, wpr, words int
	pages                     []*page
}

// PageOf returns the page index holding word wi.
func PageOf(wi int) int { return wi / PageWords }

// PageCount returns the number of pages backing a grid's words.
func (g *BitGrid) PageCount() int { return (len(g.words) + PageWords - 1) / PageWords }

// Freeze returns an immutable paged snapshot of g. When prev is a
// snapshot of an earlier state of the same grid, only the pages listed
// in dirty (page indexes, see PageOf) are copied and every other page is
// shared with prev; the caller guarantees that every word written since
// prev lies in a listed page. With prev nil every page is copied and
// dirty is ignored. Freeze does not clear dirty.
func (g *BitGrid) Freeze(prev *PagedBits, dirty *WordSet) *PagedBits {
	p := &PagedBits{width: g.width, height: g.height, wpr: g.wpr, words: len(g.words)}
	p.pages = make([]*page, g.PageCount())
	if prev == nil {
		for pi := range p.pages {
			p.pages[pi] = g.copyPage(pi)
		}
		return p
	}
	copy(p.pages, prev.pages)
	for _, pi := range dirty.Sorted() {
		p.pages[pi] = g.copyPage(pi)
	}
	return p
}

// copyPage returns a fresh copy of page pi of g, or the shared zero page
// when every word in it is zero.
func (g *BitGrid) copyPage(pi int) *page {
	src := g.words[pi*PageWords : min((pi+1)*PageWords, len(g.words))]
	zero := true
	for _, w := range src {
		if w != 0 {
			zero = false
			break
		}
	}
	if zero {
		return zeroPage
	}
	pg := new(page)
	copy(pg[:], src)
	return pg
}

// Words returns the number of words in the plane.
func (p *PagedBits) Words() int { return p.words }

// Word returns word wi of the plane.
func (p *PagedBits) Word(wi int) uint64 { return p.pages[wi/PageWords][wi%PageWords] }

// Get returns cell (x, y). The cell must lie inside the plane.
func (p *PagedBits) Get(x, y int) bool {
	wi := y*p.wpr + x/64
	return p.pages[wi/PageWords][wi%PageWords]>>(uint(x)%64)&1 != 0
}

// SharesPage reports whether page pi is the same physical page in p and
// o — the copy-on-write sharing the immutability tests pin.
func (p *PagedBits) SharesPage(o *PagedBits, pi int) bool { return p.pages[pi] == o.pages[pi] }

// eachWord calls fn for every word of the plane in order.
func (p *PagedBits) eachWord(fn func(wi int, w uint64)) {
	for pi, pg := range p.pages {
		base := pi * PageWords
		for k, w := range pg[:min(PageWords, p.words-base)] {
			fn(base+k, w)
		}
	}
}

// Count returns the number of true cells.
func (p *PagedBits) Count() int {
	n := 0
	for pi, pg := range p.pages {
		if pg == zeroPage {
			continue
		}
		for _, w := range pg[:min(PageWords, p.words-pi*PageWords)] {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// CountAnd returns the number of cells true in both p and o, and
// CountAndNot the number true in p but not in o. Both planes must have
// the same dimensions.
func (p *PagedBits) CountAnd(o *PagedBits) int {
	n := 0
	p.eachWord(func(wi int, w uint64) { n += bits.OnesCount64(w & o.Word(wi)) })
	return n
}

// CountAndNot: see CountAnd.
func (p *PagedBits) CountAndNot(o *PagedBits) int {
	n := 0
	p.eachWord(func(wi int, w uint64) { n += bits.OnesCount64(w &^ o.Word(wi)) })
	return n
}

// AppendLE appends the plane's words little-endian to dst — the packed
// wire encoding of a BitGrid, byte for byte.
func (p *PagedBits) AppendLE(dst []byte) []byte {
	p.eachWord(func(_ int, w uint64) { dst = binary.LittleEndian.AppendUint64(dst, w) })
	return dst
}

// AppendPoints appends the true cells to dst in row-major order (y,
// then x — the canonical SortPoints order).
func (p *PagedBits) AppendPoints(dst []Point) []Point {
	for pi, pg := range p.pages {
		if pg == zeroPage {
			continue
		}
		base := pi * PageWords
		for k, w := range pg[:min(PageWords, p.words-base)] {
			wi := base + k
			x0, y := (wi%p.wpr)*64, wi/p.wpr
			for w != 0 {
				dst = append(dst, Point{X: x0 + bits.TrailingZeros64(w), Y: y})
				w &= w - 1
			}
		}
	}
	return dst
}

// Bools appends the plane as a row-major []bool to dst (pass nil to
// allocate), like BitGrid.Bools.
func (p *PagedBits) Bools(dst []bool) []bool {
	n := p.width * p.height
	if cap(dst) < n {
		dst = make([]bool, n)
	}
	dst = dst[:n]
	for y := 0; y < p.height; y++ {
		row := dst[y*p.width : (y+1)*p.width]
		for x := range row {
			row[x] = p.Get(x, y)
		}
	}
	return dst
}
