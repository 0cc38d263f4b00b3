package runner

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"twig/internal/telemetry"
)

// counters is the runner's live, atomically updated telemetry.
type counters struct {
	Scheduled atomic.Int64
	Queued    atomic.Int64 // jobs waiting for a worker slot right now
	Running   atomic.Int64
	Done      atomic.Int64
	Failed    atomic.Int64
	Retries   atomic.Int64
	Panics    atomic.Int64
	Timeouts  atomic.Int64

	// SimInstructions accumulates instructions simulated by executed
	// (not cache-replayed) jobs, fed by AddSimInstructions; sampled as
	// a series it yields the aggregate kIPS the dashboard shows.
	SimInstructions atomic.Int64

	SimRuns     atomic.Int64
	SimHits     atomic.Int64
	ProfileRuns atomic.Int64
	ProfileHits atomic.Int64
	DerivedRuns atomic.Int64
	DerivedHits atomic.Int64
	OtherRuns   atomic.Int64
	OtherHits   atomic.Int64
}

func (c *counters) hit(k Kind) {
	switch k {
	case KindSim, KindSampled:
		// Sampled evaluations stand in for exact simulations, so they
		// share the sims bucket and the "zero sims on a warm rerun"
		// assertions cover them too.
		c.SimHits.Add(1)
	case KindProfile:
		c.ProfileHits.Add(1)
	case KindDerived:
		c.DerivedHits.Add(1)
	default:
		c.OtherHits.Add(1)
	}
}

func (c *counters) ran(k Kind) {
	switch k {
	case KindSim, KindSampled:
		c.SimRuns.Add(1)
	case KindProfile:
		c.ProfileRuns.Add(1)
	case KindDerived:
		c.DerivedRuns.Add(1)
	default:
		c.OtherRuns.Add(1)
	}
}

// slotTracker assigns executing jobs to stable worker-slot indices and
// accumulates per-slot busy time, so the live endpoint can expose a
// per-worker busy fraction. Slot acquisition happens strictly after
// semaphore acquisition, so a free slot always exists.
type slotTracker struct {
	mu    sync.Mutex
	free  []int
	busy  []atomic.Int64 // completed-interval busy nanoseconds per slot
	start []atomic.Int64 // wall-clock UnixNano of the running job; 0 = idle
}

func newSlotTracker(n int) *slotTracker {
	t := &slotTracker{free: make([]int, n), busy: make([]atomic.Int64, n), start: make([]atomic.Int64, n)}
	for i := range t.free {
		t.free[i] = n - 1 - i // pop from the end → lowest slot first
	}
	return t
}

func (t *slotTracker) acquire() int {
	t.mu.Lock()
	i := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.mu.Unlock()
	t.start[i].Store(time.Now().UnixNano())
	return i
}

func (t *slotTracker) release(slot int) {
	if st := t.start[slot].Swap(0); st != 0 {
		t.busy[slot].Add(time.Now().UnixNano() - st)
	}
	t.mu.Lock()
	t.free = append(t.free, slot)
	t.mu.Unlock()
}

// busyNanos reads a slot's cumulative busy time including the
// in-flight job, so the live gauge advances while a long job runs
// instead of jumping at release. The two loads are not atomic
// together: a release between them can briefly double-count the
// closing interval; the next read is exact again, which is fine for a
// monotone-in-the-limit utilization gauge.
func (t *slotTracker) busyNanos(slot int) int64 {
	b := t.busy[slot].Load()
	if st := t.start[slot].Load(); st != 0 {
		b += time.Now().UnixNano() - st
	}
	return b
}

// AddSimInstructions credits n simulated instructions to the runner's
// aggregate throughput counter. Call it from job bodies (or their
// consumers) for executed simulations only — cache replays simulate
// nothing and must not inflate kIPS.
func (r *Runner) AddSimInstructions(n int64) { r.stats.SimInstructions.Add(n) }

// Stats is a point-in-time snapshot of a Runner's counters plus its
// cache's counters (zero-valued when no cache is configured).
type Stats struct {
	// Scheduled/Done/Failed count job lifecycles; Done counts jobs
	// executed to success, so a cache hit is Scheduled but not Done (the
	// per-kind Hits fields count it). Retries, Panics and Timeouts count
	// recovered incidents.
	Scheduled, Done, Failed, Retries, Panics, Timeouts int64
	// SimRuns counts evaluation simulations actually executed;
	// SimHits counts those served from the cache instead. Profile and
	// Derived pairs are the analogous counts for training runs and
	// derived-statistic jobs; OtherRuns/OtherHits cover the rest.
	SimRuns, SimHits         int64
	ProfileRuns, ProfileHits int64
	DerivedRuns, DerivedHits int64
	OtherRuns, OtherHits     int64
	// SimInstructions is the aggregate instruction count credited via
	// AddSimInstructions (executed simulations only).
	SimInstructions int64
	// Cache tiers: MemHits hit the in-memory LRU, DiskHits the
	// persistent store; Stores counts writes. CorruptEvicted and
	// StaleEvicted count on-disk entries discarded during recovery
	// (undecodable bytes and format/simulator version mismatches).
	MemHits, DiskHits, Stores, CorruptEvicted, StaleEvicted int64
	// Remote tier (zero unless a RemoteCache is attached): RemoteHits
	// count validated downloads, RemoteStores uploads, RemoteCorrupt
	// entries rejected at validation, RemoteErrors transfers that
	// failed even after bounded retries (fetch and store combined),
	// RemoteRetries individual re-attempts.
	RemoteHits, RemoteStores, RemoteCorrupt, RemoteErrors, RemoteRetries int64
}

// Stats returns a snapshot of the runner's (and its cache's) counters.
func (r *Runner) Stats() Stats {
	s := Stats{
		Scheduled:   r.stats.Scheduled.Load(),
		Done:        r.stats.Done.Load(),
		Failed:      r.stats.Failed.Load(),
		Retries:     r.stats.Retries.Load(),
		Panics:      r.stats.Panics.Load(),
		Timeouts:    r.stats.Timeouts.Load(),
		SimRuns:     r.stats.SimRuns.Load(),
		SimHits:     r.stats.SimHits.Load(),
		ProfileRuns: r.stats.ProfileRuns.Load(),
		ProfileHits: r.stats.ProfileHits.Load(),
		DerivedRuns: r.stats.DerivedRuns.Load(),
		DerivedHits: r.stats.DerivedHits.Load(),
		OtherRuns:   r.stats.OtherRuns.Load(),
		OtherHits:   r.stats.OtherHits.Load(),

		SimInstructions: r.stats.SimInstructions.Load(),
	}
	if c := r.opts.Cache; c != nil {
		s.MemHits = c.stats.MemHits.Load()
		s.DiskHits = c.stats.DiskHits.Load()
		s.Stores = c.stats.Stores.Load()
		s.CorruptEvicted = c.stats.CorruptEvicted.Load()
		s.StaleEvicted = c.stats.StaleEvicted.Load()
		s.RemoteHits = c.stats.RemoteHits.Load()
		s.RemoteStores = c.stats.RemoteStores.Load()
		s.RemoteCorrupt = c.stats.RemoteCorrupt.Load()
		s.RemoteErrors = c.stats.RemoteErrors.Load() + c.stats.RemoteStoreErrors.Load()
		s.RemoteRetries = c.stats.RemoteRetries.Load()
	}
	return s
}

// Summary renders the snapshot as the one-line cache hit/miss report
// printed by cmd/experiments at exit. It is deterministic for a given
// job matrix and cache state, so parallel and serial runs print the
// same line. The remote-tier section appears only when remote traffic
// occurred, so runs without a coordinator print the historical line.
func (s Stats) Summary() string {
	line := fmt.Sprintf(
		"jobs: %d done, %d failed | sims: %d run, %d cached | profiles: %d run, %d cached | derived: %d run, %d cached | cache: %d mem + %d disk hits, %d stores, %d corrupt, %d stale",
		s.Done, s.Failed, s.SimRuns, s.SimHits, s.ProfileRuns, s.ProfileHits,
		s.DerivedRuns, s.DerivedHits, s.MemHits, s.DiskHits, s.Stores,
		s.CorruptEvicted, s.StaleEvicted)
	if s.RemoteHits != 0 || s.RemoteStores != 0 || s.RemoteCorrupt != 0 || s.RemoteErrors != 0 {
		line += fmt.Sprintf(" | remote: %d hits, %d stores, %d corrupt, %d errors",
			s.RemoteHits, s.RemoteStores, s.RemoteCorrupt, s.RemoteErrors)
	}
	return line
}

// HitRate returns the fraction of completed work units served from
// the cache rather than executed, across all kinds (0 when nothing has
// completed).
func (s Stats) HitRate() float64 {
	hits := s.SimHits + s.ProfileHits + s.DerivedHits + s.OtherHits
	runs := s.SimRuns + s.ProfileRuns + s.DerivedRuns + s.OtherRuns
	if hits+runs == 0 {
		return 0
	}
	return float64(hits) / float64(hits+runs)
}

// PublishTo registers the runner's counters as live gauges on a
// telemetry registry (namespace runner_*), so job progress and cache
// effectiveness are visible on the live endpoint while a sweep runs —
// including queue depth, per-worker busy milliseconds (one gauge per
// slot, so the dashboard can derive each worker's busy fraction from
// series deltas) and the aggregate simulated-instruction counter
// behind the kIPS readout. Gauge reads are atomic loads and safe
// against concurrent jobs.
func (r *Runner) PublishTo(reg *telemetry.Registry) {
	gauges := []struct {
		name string
		v    *atomic.Int64
	}{
		{"runner_jobs_scheduled", &r.stats.Scheduled},
		{"runner_queue_depth", &r.stats.Queued},
		{"runner_jobs_running", &r.stats.Running},
		{"runner_jobs_done", &r.stats.Done},
		{"runner_jobs_failed", &r.stats.Failed},
		{"runner_jobs_retried", &r.stats.Retries},
		{"runner_jobs_panicked", &r.stats.Panics},
		{"runner_jobs_timed_out", &r.stats.Timeouts},
		{"runner_sims_run", &r.stats.SimRuns},
		{"runner_sims_cached", &r.stats.SimHits},
		{"runner_profiles_run", &r.stats.ProfileRuns},
		{"runner_profiles_cached", &r.stats.ProfileHits},
		{"runner_derived_run", &r.stats.DerivedRuns},
		{"runner_derived_cached", &r.stats.DerivedHits},
		{"runner_sim_instructions", &r.stats.SimInstructions},
	}
	for _, g := range gauges {
		v := g.v
		reg.GaugeInt(g.name, v.Load)
	}
	for i := range r.slots.busy {
		slot := i
		reg.GaugeInt(fmt.Sprintf("runner_worker_%02d_busy_ms", i), func() int64 {
			return r.slots.busyNanos(slot) / int64(time.Millisecond)
		})
	}
	if c := r.opts.Cache; c != nil {
		c.PublishTo(reg)
	}
}
