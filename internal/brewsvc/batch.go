package brewsvc

import (
	"fmt"

	"repro/internal/brew"
	"repro/internal/obs"
)

// SubmitBatch admits a burst of requests in one pass and returns one
// ticket per request, in input order. Semantically it is exactly N
// Submit calls — same admission order, same coalescing, same admission
// control — but the queue transactions collapse: the batch is grouped by
// service shard after the lock-free cache pre-pass, and each shard's
// group is admitted under ONE acquisition of that shard's lock instead
// of one per request. Requests inside the batch that share a key
// singleflight against each other (the first becomes the flight, the
// rest coalesce onto it), exactly as concurrent Submits would.
//
// Like Submit, SubmitBatch never blocks on a trace: every returned
// ticket's Addr is callable immediately.
func (s *Service) SubmitBatch(reqs []*Request) []*Ticket {
	tickets := make([]*Ticket, len(reqs))

	// admit collects the per-shard groups that survive the lock-free
	// pre-pass (validation, shutdown, cache hits), in input order.
	type pending struct {
		i         int // index into reqs/tickets
		k         cacheKey
		ek        entryKey
		cacheable bool
		tid       obs.TraceID
		subStart  int64
	}
	perShard := make(map[*shard][]pending)

	closed := s.closed.Load()
	for i, req := range reqs {
		mSubmitted.Inc()
		if req == nil {
			s.shards[0].st.submitted.Add(1)
			tickets[i] = doneTicket(Outcome{
				Degraded: true, Reason: brew.ReasonBadConfig,
				Err: fmt.Errorf("%w: nil request", brew.ErrBadConfig),
			})
			continue
		}
		if req.Config == nil {
			s.shards[0].st.submitted.Add(1)
			tickets[i] = doneTicket(Outcome{
				Addr: req.Fn, Degraded: true, Reason: brew.ReasonBadConfig,
				Err: fmt.Errorf("%w: nil configuration", brew.ErrBadConfig),
			})
			continue
		}
		ek, k := keysOf(req)
		sh := s.shardOf(ek)
		sh.st.submitted.Add(1)
		if closed {
			tickets[i] = shutdownTicket(req.Fn)
			continue
		}
		tid := obs.StartTrace()
		subStart := obs.Now()
		cacheable := req.Config.Inject == nil
		if cacheable {
			lookStart := obs.Now()
			cv, ok := s.cache.get(k)
			obs.EndSpanOn(sh.id, tid, obs.StageCacheLookup, obs.TierNone, lookStart, req.Fn, 0)
			if ok {
				if cv.v.Live() {
					sh.st.cacheHits.Add(1)
					mCacheHits.Inc()
					obs.EndSpanOn(sh.id, tid, obs.StageSubmit, obs.TierNone, subStart, req.Fn, 0)
					tickets[i] = doneTicket(Outcome{Entry: cv.e, Addr: cv.e.Addr(), Variant: cv.v, CacheHit: true})
					continue
				}
				s.dropDeadSlot(k, cv)
			}
		}
		perShard[sh] = append(perShard[sh], pending{
			i: i, k: k, ek: ek, cacheable: cacheable, tid: tid, subStart: subStart,
		})
	}

	// One lock transaction per shard. Within the group, admission runs in
	// input order, so batch-internal duplicates coalesce onto the first
	// occurrence's flight via the inflight table — the singleflight
	// machinery needs no special casing for batches.
	for sh, group := range perShard {
		sh.mu.Lock()
		for _, p := range group {
			tickets[p.i] = sh.admitLocked(reqs[p.i], p.k, p.ek, p.cacheable, p.tid, p.subStart)
		}
		sh.mu.Unlock()
		for _, p := range group {
			obs.EndSpanOn(sh.id, p.tid, obs.StageSubmit, obs.TierNone, p.subStart, reqs[p.i].Fn, 0)
		}
	}
	return tickets
}
