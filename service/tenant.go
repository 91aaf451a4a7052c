package service

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Multi-tenant namespaces: one corrd daemon serves N independent keyed
// summaries — the ROADMAP's "millions of users" model, where every
// user/flow/metric keys its own correlated-aggregate state. A tenant
// key rides the request surface (?tenant= on the HTTP endpoints, the
// keyed stream frame format) and the durability surface (every ingest
// record in the WAL, every checkpoint image); the empty key is
// the default tenant, which is what a request naming no tenant addresses
// and is logged and checkpointed like any other. A tenant comes into being
// with the apply of the first logged write to it (tenantForWriteLocked, the
// one place a request or a record makes one); reads never make one.
//
// All tenants share one commit pipeline, one WAL, one decode pool and one
// driver lock (s.mu): the committer is one goroutine regardless of tenant
// count, so per-tenant locks would buy no parallelism.
//
// Governance: MaxTenants caps the namespace count (HTTP 429 past it),
// MaxTenantBytes caps the summed per-tenant footprint (HTTP 413) — moved
// at every commit, spill and restore (noteFootprintLocked), so enforcement
// is approximate by one group; the commit decides both before it appends
// (admitLocked). The count is in bytes either way: what a live tenant's
// summary keeps (liveBytes), the image length of a spilled one.
// TenantIdleSpill reclaims idle tenants' memory: the summary is marshaled
// into an in-memory image and dropped, and the next touch lazily
// unmarshals the same bytes into a fresh one. Spill is pure memory
// reclamation, never durability: the log remains the only recovery
// source, and a checkpoint logs a spilled tenant's image verbatim
// (consistent by construction — a spilled tenant is untouched since its
// spill).

// memoCap bounds a tenant's answer memo. A dashboard polls a handful of
// cutoffs; a scan over thousands would otherwise grow the map without
// bound, so inserting into a full memo clears it first.
const memoCap = 4096

// memoKey names one memoized answer: the query direction and cutoff.
type memoKey struct {
	ge bool
	c  uint64
}

// memoEntry is one memoized estimate, stamped with the tenant epoch and
// the time it was evaluated at.
type memoEntry struct {
	estimate float64
	epoch    uint64
	at       time.Time
}

// tenant is one keyed namespace: an independent engine plus the
// per-tenant serving state (epoch, answer memo, stats) that a
// single-tenant server kept on itself.
type tenant struct {
	name string

	// eng is the live engine; nil while the tenant is spilled, in which
	// case pending holds the marshaled image the next touch restores.
	// Both fields are guarded by the server's driver lock (s.mu), like
	// every engine read and write.
	eng     Engine
	pending []byte

	// epoch counts this tenant's state changes (bumped under s.mu). memo
	// holds the answers queries have evaluated, each valid while the
	// epoch it was evaluated at is still current, or for QueryMaxStale.
	// memoMu is a leaf lock apart from one nesting: the query path takes
	// it inside s.mu (never the reverse) to re-check for answers another
	// query filled while it waited for the driver lock.
	epoch  atomic.Uint64
	memoMu sync.Mutex
	memo   map[memoKey]memoEntry

	lastTouch atomic.Int64 // unix nanos of the last ingest/query
	footprint atomic.Int64 // bytes as of the last noteFootprintLocked: liveBytes, or the image length while spilled

	// Per-tenant counters for /v1/stats?tenant=.
	tuplesIngested atomic.Uint64
	queries        atomic.Uint64
	spills         atomic.Uint64
	restores       atomic.Uint64
}

func (t *tenant) touch() { t.lastTouch.Store(time.Now().UnixNano()) }

// memoServe fills out[i], for each index i in idx, from a memoized
// answer that may still be served — evaluated at the current epoch, or
// less than maxStale ago — and returns the indexes left unanswered
// (reusing idx).
func (t *tenant) memoServe(ge bool, cutoffs []uint64, out []float64, idx []int, now time.Time, maxStale time.Duration) []int {
	epoch := t.epoch.Load()
	rest := idx[:0]
	t.memoMu.Lock()
	for _, i := range idx {
		e, ok := t.memo[memoKey{ge, cutoffs[i]}]
		if ok && (e.epoch == epoch || (maxStale > 0 && now.Sub(e.at) < maxStale)) {
			out[i] = e.estimate
		} else {
			rest = append(rest, i)
		}
	}
	t.memoMu.Unlock()
	return rest
}

// memoEvaluate answers the cutoffs at idx on the live engine and
// memoizes them. Callers hold s.mu, which is what makes the epoch read
// here the epoch of the state the answers describe.
func (t *tenant) memoEvaluate(eng Engine, ge bool, cutoffs []uint64, out []float64, idx []int, now time.Time) error {
	query := eng.QueryLE
	if ge {
		query = eng.QueryGE
	}
	for _, i := range idx {
		est, err := query(cutoffs[i])
		if err != nil {
			return err
		}
		out[i] = est
	}
	epoch := t.epoch.Load()
	t.memoMu.Lock()
	if t.memo == nil || len(t.memo)+len(idx) > memoCap {
		t.memo = make(map[memoKey]memoEntry, len(idx))
	}
	for _, i := range idx {
		t.memo[memoKey{ge, cutoffs[i]}] = memoEntry{estimate: out[i], epoch: epoch, at: now}
	}
	t.memoMu.Unlock()
	return nil
}

// spilled reports whether the tenant currently lives as a marshaled
// image. Callers hold s.mu.
func (t *tenant) spilledLocked() bool { return t.eng == nil }

// tenantByName returns the registry entry for a key, or nil: the read
// paths' lookup (reads never make a tenant).
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

// admitLocked decides, before the append, whether a write to key may go in
// the log: a registered tenant must materialize, and a new key must fit
// under the governance caps counting made, the group's new keys admitted
// so far, which it then joins. Callers hold s.mu.
func (s *Server) admitLocked(key []byte, made *[][]byte) (ingestErrKind, error) {
	if t := s.tenants[string(key)]; t != nil {
		if _, err := s.ensureEngineLocked(t); err != nil {
			return ingestErrEngine, err
		}
		return ingestOK, nil
	}
	if slices.ContainsFunc(*made, func(k []byte) bool { return bytes.Equal(k, key) }) {
		return ingestOK, nil
	}
	if n := len(s.tenants) + len(*made); s.cfg.MaxTenants > 0 && n >= s.cfg.MaxTenants {
		return ingestErrTenant, fmt.Errorf("service: tenant limit reached: %d tenants, cap is %d", n, s.cfg.MaxTenants)
	}
	if b := s.tenantBytes.Load(); s.cfg.MaxTenantBytes > 0 && b >= s.cfg.MaxTenantBytes {
		return ingestErrTenantBytes, fmt.Errorf("service: tenant memory cap reached: ~%d bytes across %d tenants, cap is %d",
			b, len(s.tenants), s.cfg.MaxTenantBytes)
	}
	*made = append(*made, key)
	return ingestOK, nil
}

// tenantForWriteLocked resolves the key of a logged write to its tenant,
// engine materialized, and is the one place a request or a record makes a
// tenant — live and on replay alike. It enforces no cap:
// admitLocked did before the append, and what the log holds outranks a cap
// lowered since. Callers hold s.mu, or run before any goroutine exists.
func (s *Server) tenantForWriteLocked(key []byte) (*tenant, error) {
	if t := s.tenants[string(key)]; t != nil {
		_, err := s.ensureEngineLocked(t)
		return t, err
	}
	eng, err := newEngine(&s.cfg)
	if err != nil {
		return nil, err
	}
	t := &tenant{name: string(key), eng: eng}
	s.regMu.Lock()
	s.tenants[t.name] = t
	s.regMu.Unlock()
	s.tenantsLive.Add(1)
	s.metrics.tenantsCreated.Inc()
	return t, nil
}

// imageLocked returns the tenant's state as one marshaled image: the
// pending bytes while it is spilled — untouched since they were installed,
// so consistent by construction — else the live engine's MarshalBinary.
// Callers hold s.mu.
func (t *tenant) imageLocked() ([]byte, error) {
	if t.spilledLocked() {
		return t.pending, nil
	}
	return t.eng.MarshalBinary()
}

// installImageLocked makes image the tenant's whole state, in the spilled
// form: whatever engine it held is dropped, and the next touch
// materializes the image (ensureEngineLocked). An empty image is the empty
// summary. A spill and a startup restore both change a tenant's form
// here, so the bookkeeping that follows the form — the memo
// (its answers describe the old state, and the point of a spill is the
// memory), the epoch, the footprint sample, the live count — cannot drift
// between them. image is retained. Callers hold s.mu, or run before any
// goroutine exists.
func (s *Server) installImageLocked(t *tenant, image []byte) {
	if !t.spilledLocked() {
		t.eng = nil
		s.tenantsLive.Add(-1)
	}
	t.pending = image
	s.noteFootprintLocked(t)
	t.memoMu.Lock()
	t.memo = nil
	t.memoMu.Unlock()
	t.epoch.Add(1)
}

// ensureEngineLocked materializes a spilled tenant's engine from its
// pending image. Callers hold s.mu — engine state only ever changes
// under the driver lock.
func (s *Server) ensureEngineLocked(t *tenant) (Engine, error) {
	if t.eng != nil {
		return t.eng, nil
	}
	eng, err := newEngine(&s.cfg)
	if err != nil {
		return nil, err
	}
	if len(t.pending) > 0 {
		if err := eng.UnmarshalBinary(t.pending); err != nil {
			return nil, fmt.Errorf("service: tenant %q restore: %w", t.name, err)
		}
	}
	t.eng = eng
	t.pending = nil
	t.restores.Add(1)
	s.tenantsLive.Add(1)
	s.metrics.tenantsRestored.Inc()
	s.noteFootprintLocked(t)
	return eng, nil
}

// spillTenant installs an idle tenant's own image over it, dropping the
// engine. The default tenant never spills — its engine doubles as Engine().
func (s *Server) spillTenant(t *tenant) bool {
	if t == s.def {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.spilledLocked() {
		return false
	}
	img, err := t.imageLocked()
	if err != nil {
		s.logf("tenant %q spill: %v", t.name, err)
		return false
	}
	s.installImageLocked(t, img)
	t.spills.Add(1)
	s.metrics.tenantsSpilled.Inc()
	return true
}

// spillIdle spills every non-default tenant untouched for at least age; it
// returns how many spilled.
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
	return spilled
}

// liveBytes is what a live tenant's summary keeps: the tables and arrays its
// sketches hold at the widths they are stored at and what else their makers'
// arenas map, off the heap, and the bucket and sketch structs around them on
// it (correlated.Footprint, added up). For the F2 summary those are running
// counts — reading them walks nothing — the arenas' exact and the heap's true
// to within a few per cent of the heap profile; the other aggregates, which
// keep none, answer eight bytes per stored word of Space(), by Space's walk.
func liveBytes(eng Engine) int64 { return eng.Footprint().Total() }

// notesAtCommit reports whether a commit notes the footprint of the tenants
// it touched: always where the figure is a field read, and where it is a walk
// of the summary only when a cap is there for it to feed — the apply path of
// an fk, count or sum daemon with no cap pays no walk, and its tenants' figures
// then stand as of their last spill or restore.
func (s *Server) notesAtCommit() bool {
	return s.cfg.countsBytes() || s.cfg.MaxTenantBytes > 0
}

// noteFootprintLocked records what t costs now — liveBytes of its engine, the
// length of its image while it is spilled — and moves the server-wide sum by
// the difference, so the sum is never recounted. Every change of a registered
// tenant's form ends here — a spill or a restore, each of which costs
// a pass over the summary anyway — and so does a commit that touched it, under
// notesAtCommit. Enforcement against MaxTenantBytes reads the sum.
// Callers hold s.mu, or run before any goroutine exists.
func (s *Server) noteFootprintLocked(t *tenant) {
	n := int64(len(t.pending))
	if t.eng != nil {
		n = liveBytes(t.eng)
	}
	s.tenantBytes.Add(n - t.footprint.Swap(n))
}

// tenantCounts summarizes the registry for /metrics and /v1/stats.
func (s *Server) tenantCounts() (total, live int) {
	s.regMu.RLock()
	total = len(s.tenants)
	s.regMu.RUnlock()
	return total, int(s.tenantsLive.Load())
}
