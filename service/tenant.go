package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streamagg/correlated/internal/tupleio"
)

// Multi-tenant namespaces: one corrd daemon serves N independent keyed
// summaries — the ROADMAP's "millions of users" model, where every
// user/flow/metric keys its own correlated-aggregate state. A tenant
// key rides the request surface (?tenant= on the HTTP endpoints, the
// keyed stream frame format) and the durability surface (keyed WAL
// records, the multi-tenant snapshot framing); the empty key is the
// default tenant, which is what every legacy request, WAL record, and
// snapshot file addresses — single-tenant deployments never see a
// change, on the wire or on disk.
//
// Sharing, not duplication: all tenants ride one commit pipeline (one
// group commit, one WAL, one fsync covers batches for many tenants),
// one decode pool, and a cross-tenant free list of reset engines — a
// spilled or failed tenant's engine parks with its warm per-maker
// sketch pools intact and the next tenant creation reuses it, so the
// per-tenant setup cost amortizes the same way the per-request fsync
// does. Every tenant engine is driven under the same single driver
// lock (s.mu): the committer is one goroutine regardless of tenant
// count, so per-tenant locks would buy parallelism nothing and cost a
// lock-order minefield.
//
// Governance: MaxTenants caps the namespace count (HTTP 429 past it),
// MaxTenantBytes caps the summed per-tenant footprint (HTTP 413) —
// sampled at commit and spill time, so enforcement is approximate by
// one group. The sample of a live tenant is Space() in counters (two per
// entry of a sparse sketch, width × depth per dense one), that of a
// spilled tenant its image length in bytes. TenantIdleSpill reclaims idle tenants' memory: the engine
// is marshaled into an in-memory image (its snapshot form — cursors
// included, so restore is bit-identical), the engine parks on the free
// list, and the next touch lazily materializes the same bytes back.
// Spill is pure memory reclamation, never durability: the snapshot and
// the WAL remain the only recovery sources, and snapshots embed a
// spilled tenant's image verbatim (consistent by construction — a
// spilled tenant is untouched since its spill).

// Tenant governance rejections, surfaced as typed HTTP statuses
// (429 and 413 respectively).
var (
	// ErrTenantLimit rejects creating a tenant past Config.MaxTenants.
	ErrTenantLimit = errors.New("service: tenant limit reached")
	// ErrTenantMemory rejects creating a tenant past Config.MaxTenantBytes.
	ErrTenantMemory = errors.New("service: tenant memory cap reached")
)

// engineFreeListCap bounds the cross-tenant free list of reset engines.
// A parked engine keeps its worker goroutines and warm sketch pools, so
// the cap trades reuse against idle goroutines; beyond it engines close.
const engineFreeListCap = 16

// tenant is one keyed namespace: an independent engine plus the
// per-tenant serving state (epoch, query cache, stats) that a
// single-tenant server kept on itself.
type tenant struct {
	name string

	// eng is the live engine; nil while the tenant is spilled, in which
	// case pending holds the marshaled image the next touch restores.
	// Both fields are guarded by the server's driver lock (s.mu), like
	// every engine mutation.
	eng     Engine
	pending []byte

	// epoch counts this tenant's state changes (bumped under s.mu); the
	// query path caches the merged summary keyed by it. queryMu
	// serializes this tenant's cache rebuilds and cached reads — and
	// orders before s.mu, which is why spill takes it first.
	epoch      atomic.Uint64
	queryMu    sync.Mutex
	cacheEpoch uint64    // under queryMu
	cacheValid bool      // under queryMu
	cacheBuilt time.Time // under queryMu; for the QueryMaxStale window
	cacheEng   Engine    // under queryMu: the engine the cache was built on;
	// the cached read path uses it instead of eng so it never races a
	// restore writing eng under s.mu (spill nils it under this queryMu)

	// inGroup marks the tenant as touched by the commit group being
	// built (under s.mu): the committer's first-touch dedup, so each
	// group flushes and epoch-bumps every touched tenant exactly once.
	inGroup bool

	lastTouch atomic.Int64 // unix nanos of the last ingest/push/query
	space     atomic.Int64 // footprint sample: Space at last commit, image length while spilled

	// Per-tenant counters for /v1/stats?tenant=.
	tuplesIngested atomic.Uint64
	pushesMerged   atomic.Uint64
	queries        atomic.Uint64
	spills         atomic.Uint64
	restores       atomic.Uint64
}

func (t *tenant) touch() { t.lastTouch.Store(time.Now().UnixNano()) }

// spilled reports whether the tenant currently lives as a marshaled
// image. Callers hold s.mu.
func (t *tenant) spilledLocked() bool { return t.eng == nil }

// lookupTenant returns the live registry entry for a wire-decoded key,
// or nil. The string conversion in the map index does not allocate.
func (s *Server) lookupTenant(name []byte) *tenant {
	s.regMu.RLock()
	t := s.tenants[string(name)]
	s.regMu.RUnlock()
	return t
}

// tenantByName is lookupTenant for keys already held as strings
// (HTTP query parameters).
func (s *Server) tenantByName(name string) *tenant {
	s.regMu.RLock()
	t := s.tenants[name]
	s.regMu.RUnlock()
	return t
}

// tenantList snapshots the registry (unordered).
func (s *Server) tenantList() []*tenant {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	return out
}

// getOrCreateTenant resolves name, creating the tenant when it does not
// exist yet — ingest and push are the creation surface; queries never
// create. Creation validates the key and enforces the governance caps
// unless replay is set: WAL replay and snapshot restore re-create
// whatever existed at the crash, because acknowledged data outranks a
// cap that may have been lowered since.
func (s *Server) getOrCreateTenant(name []byte, replay bool) (*tenant, error) {
	if t := s.lookupTenant(name); t != nil {
		return t, nil
	}
	if err := tupleio.ValidateTenant(name); err != nil {
		return nil, err
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if t := s.tenants[string(name)]; t != nil {
		return t, nil // lost the creation race; the winner's entry serves
	}
	if !replay {
		if s.cfg.MaxTenants > 0 && len(s.tenants) >= s.cfg.MaxTenants {
			s.metrics.tenantRejectedLimit.Inc()
			return nil, fmt.Errorf("%w: %d tenants, cap is %d", ErrTenantLimit, len(s.tenants), s.cfg.MaxTenants)
		}
		if s.cfg.MaxTenantBytes > 0 && s.tenantBytes.Load() >= s.cfg.MaxTenantBytes {
			s.metrics.tenantRejectedMemory.Inc()
			return nil, fmt.Errorf("%w: ~%d bytes across %d tenants, cap is %d",
				ErrTenantMemory, s.tenantBytes.Load(), len(s.tenants), s.cfg.MaxTenantBytes)
		}
	}
	eng, err := s.takeEngineLocked()
	if err != nil {
		return nil, err
	}
	t := &tenant{name: string(name), eng: eng}
	t.touch()
	s.tenants[t.name] = t
	s.metrics.tenantsCreated.Inc()
	return t, nil
}

// addRestoredTenant registers a tenant straight from a snapshot image,
// leaving it spilled: the engine materializes lazily on first touch, so
// a daemon restoring ten thousand tenants pays engine construction only
// for the ones traffic actually reaches. Startup-only (single-threaded).
func (s *Server) addRestoredTenant(name string, image []byte) *tenant {
	t := &tenant{name: name, pending: image}
	t.space.Store(int64(len(image)))
	t.touch()
	s.tenants[name] = t
	return t
}

// ensureEngineLocked materializes a spilled tenant's engine from its
// pending image (a free-list engine when one is parked, a fresh one
// otherwise). Callers hold s.mu — engine state only ever changes under
// the driver lock.
func (s *Server) ensureEngineLocked(t *tenant) (Engine, error) {
	if t.eng != nil {
		return t.eng, nil
	}
	eng, err := s.takeEngine()
	if err != nil {
		return nil, err
	}
	if len(t.pending) > 0 {
		if err := eng.UnmarshalBinary(t.pending); err != nil {
			s.parkEngine(eng)
			return nil, fmt.Errorf("service: tenant %q restore: %w", t.name, err)
		}
	}
	t.eng = eng
	t.pending = nil
	t.restores.Add(1)
	s.metrics.tenantsRestored.Inc()
	return eng, nil
}

// takeEngine pops a parked engine or builds a fresh one.
func (s *Server) takeEngine() (Engine, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	return s.takeEngineLocked()
}

// takeEngineLocked is takeEngine under an already-held regMu.
func (s *Server) takeEngineLocked() (Engine, error) {
	if n := len(s.engFree); n > 0 {
		e := s.engFree[n-1]
		s.engFree[n-1] = nil
		s.engFree = s.engFree[:n-1]
		s.metrics.tenantEnginesReused.Inc()
		return e, nil
	}
	return newEngine(&s.cfg)
}

// parkEngine resets e and returns it to the cross-tenant free list —
// worker goroutines stay up and the per-maker sketch free lists stay
// warm for the next tenant. A full list (or a failed reset) closes the
// engine instead.
func (s *Server) parkEngine(e Engine) {
	if err := e.Reset(); err != nil {
		e.Close()
		return
	}
	s.regMu.Lock()
	if len(s.engFree) < engineFreeListCap {
		s.engFree = append(s.engFree, e)
		s.regMu.Unlock()
		return
	}
	s.regMu.Unlock()
	e.Close()
}

// spillTenant marshals an idle tenant into its in-memory image and
// parks the engine. Lock order is the query path's (queryMu before
// s.mu), so a query can never observe a half-spilled tenant: the cache
// invalidation below happens under the same queryMu the cached read
// path holds. The default tenant never spills — its engine doubles as
// Engine() and the site role's push source.
func (s *Server) spillTenant(t *tenant) bool {
	if t == s.def {
		return false
	}
	t.queryMu.Lock()
	defer t.queryMu.Unlock()
	s.mu.Lock()
	eng := t.eng
	if eng == nil {
		s.mu.Unlock()
		return false
	}
	img, err := eng.MarshalBinary()
	if err != nil {
		s.mu.Unlock()
		s.logf("tenant %q spill: %v", t.name, err)
		return false
	}
	t.pending = img
	t.eng = nil
	t.cacheValid = false
	t.cacheEng = nil
	t.space.Store(int64(len(img)))
	s.mu.Unlock()
	s.parkEngine(eng)
	t.spills.Add(1)
	s.metrics.tenantsSpilled.Inc()
	return true
}

// spillIdle spills every non-default tenant untouched for at least age
// and refreshes the footprint gauge; it returns how many spilled.
func (s *Server) spillIdle(age time.Duration) int {
	cutoff := time.Now().Add(-age).UnixNano()
	spilled := 0
	for _, t := range s.tenantList() {
		if t == s.def || t.lastTouch.Load() > cutoff {
			continue
		}
		if s.spillTenant(t) {
			spilled++
		}
	}
	s.recomputeFootprint()
	return spilled
}

// spillLoop runs the idle scan on a ticker until Close.
func (s *Server) spillLoop(interval time.Duration) {
	defer s.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.spillIdle(interval)
		case <-s.done:
			return
		}
	}
}

// recomputeFootprint refreshes the governance gauge from the per-tenant
// samples (engine Space at the last commit; image length while
// spilled). Enforcement against MaxTenantBytes reads this gauge, so it
// lags live state by at most one commit group or spill scan.
func (s *Server) recomputeFootprint() int64 {
	var total int64
	for _, t := range s.tenantList() {
		total += t.space.Load()
	}
	s.tenantBytes.Store(total)
	s.metrics.tenantBytes.Set(total)
	return total
}

// tenantCounts summarizes the registry for /metrics and /v1/stats.
func (s *Server) tenantCounts() (total, live int) {
	s.regMu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.regMu.RUnlock()
	s.mu.Lock()
	for _, t := range tenants {
		if !t.spilledLocked() {
			live++
		}
	}
	s.mu.Unlock()
	return len(tenants), live
}
