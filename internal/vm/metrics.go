package vm

import "repro/internal/telemetry"

// Execution counters published to the process-wide telemetry registry.
// Updates happen only at Call/CallFloat boundaries (as deltas against the
// last publication), never per instruction, so the emulator hot path is
// untouched whether telemetry is on or off.
var (
	mCycles   = telemetry.Default.Counter("vm.cycles")
	mInstrs   = telemetry.Default.Counter("vm.instructions")
	mLoads    = telemetry.Default.Counter("vm.loads")
	mStores   = telemetry.Default.Counter("vm.stores")
	mBranches = telemetry.Default.Counter("vm.branches")
	mTaken    = telemetry.Default.Counter("vm.taken_branches")
	mCalls    = telemetry.Default.Counter("vm.calls")

	mDecodeMisses     = telemetry.Default.Counter("vm.decode_misses")
	mDecodeInvals     = telemetry.Default.Counter("vm.decode_invalidations")
	mDecodeInvalSlots = telemetry.Default.Counter("vm.decode_invalidated_slots")
	mFreedCodeFaults  = telemetry.Default.Counter("vm.freed_code_faults")
)

// PublishTelemetry pushes the machine's counter growth since the last
// publication into the telemetry registry: vm.* execution and decode-table
// counters and cache.<level>.{hits,misses,evictions} per cache level. It is
// called automatically after every top-level Call/CallFloat and is safe
// (and cheap — one atomic load) to call with telemetry disabled.
func (m *Machine) PublishTelemetry() {
	if !telemetry.Enabled() {
		return
	}
	d := m.Stats.Sub(m.pubStats)
	m.pubStats = m.Stats
	mCycles.Add(d.Cycles)
	mInstrs.Add(d.Instructions)
	mLoads.Add(d.Loads)
	mStores.Add(d.Stores)
	mBranches.Add(d.Branches)
	mTaken.Add(d.TakenBranches)
	mCalls.Add(d.Calls)
	dd := m.decode
	mDecodeMisses.Add(dd.Misses - m.pubDecode.Misses)
	mDecodeInvals.Add(dd.Invalidations - m.pubDecode.Invalidations)
	mDecodeInvalSlots.Add(dd.InvalidatedSlots - m.pubDecode.InvalidatedSlots)
	mFreedCodeFaults.Add(dd.FreedCodeFaults - m.pubDecode.FreedCodeFaults)
	m.pubDecode = dd
	if m.Cache == nil {
		return
	}
	cur := m.Cache.Stats()
	for i, lv := range cur {
		prev := cacheStatsAt(m.pubCache, i)
		telemetry.Default.Counter("cache." + lv.Name + ".hits").Add(lv.Hits - prev.Hits)
		telemetry.Default.Counter("cache." + lv.Name + ".misses").Add(lv.Misses - prev.Misses)
		telemetry.Default.Counter("cache." + lv.Name + ".evictions").Add(lv.Evictions - prev.Evictions)
	}
	if cap(m.pubCache) < len(cur) {
		m.pubCache = make([]cacheLevelStats, len(cur))
	}
	m.pubCache = m.pubCache[:len(cur)]
	for i, lv := range cur {
		m.pubCache[i] = cacheLevelStats{Hits: lv.Hits, Misses: lv.Misses, Evictions: lv.Evictions}
	}
}

type cacheLevelStats struct {
	Hits, Misses, Evictions uint64
}

func cacheStatsAt(s []cacheLevelStats, i int) cacheLevelStats {
	if i < len(s) {
		return s[i]
	}
	return cacheLevelStats{}
}
