package routeidx

import (
	"sync/atomic"

	"ocpmesh/internal/core"
	"ocpmesh/internal/routing"
)

// Published maintains a current Index over a live core.Session with the
// same lock-free discipline internal/serve uses for snapshots: readers
// Load an immutable index through an atomic pointer, the session's
// mutating goroutine replaces it after every delta.
type Published struct {
	ptr atomic.Pointer[Index]
}

// Publish compiles an index for the session's current state and
// registers a Session.OnDelta hook that rebuilds it incrementally after
// every successful delta. Like OnDelta itself, Publish must run before
// the session is shared across goroutines; afterwards Load is safe from
// anywhere.
func Publish(s *core.Session, model routing.Model, opt Options) *Published {
	p := &Published{}
	p.ptr.Store(Compile(s.View(), model, opt))
	s.OnDelta(func(core.Delta) {
		p.ptr.Store(p.ptr.Load().Rebuild(s.View()))
	})
	return p
}

// Load returns the current immutable index. The result stays valid (and
// queryable) forever; later deltas publish replacements instead of
// mutating it.
func (p *Published) Load() *Index { return p.ptr.Load() }
