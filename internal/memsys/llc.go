package memsys

// resolveLLC computes per-flow LLC residency on one socket.
//
// The LLC is modeled at way granularity, which is exactly the granularity of
// Intel CAT: each flow may occupy the ways in its mask. When a way's total
// footprint fits, everyone is resident. When it does not, flows split the
// way's capacity in proportion to footprint x access rate — the steady state
// of LRU under contention, where a high-rate streaming antagonist displaces
// a low-rate victim far beyond its footprint-proportional share. A flow's
// hit fraction is the share of its footprint it kept resident.
//
// flows are indices into all; hit fractions are written to hits, which is
// indexed by flow index (hits[fi] for each fi in flows). The per-way
// footprint/weight buffers come from the caller's arena so steady-state
// resolution does not allocate.
func resolveLLC(cfg *Config, all []Flow, flows []int, hits []float64, a *arena) {
	ways := cfg.LLCWays
	wayBytes := cfg.LLCSize / float64(ways)
	allMask := cfg.AllWays()

	// llcWeight is a flow's displacement power: footprint times total
	// cache-visible access rate (reuse plus streaming traffic, which also
	// passes through and evicts).
	llcWeight := func(f *Flow) float64 {
		rate := f.LLCRefBW + f.DemandBW
		if rate < 1 {
			rate = 1 // footprint with no traffic still occupies space
		}
		return f.LLCFootprint * rate
	}

	// Per-way footprint (fit check) and weight (contended split).
	wayFootprint := growF(a.llcWayFootprint, ways)
	wayWeight := growF(a.llcWayWeight, ways)
	a.llcWayFootprint, a.llcWayWeight = wayFootprint, wayWeight
	for _, fi := range flows {
		f := &all[fi]
		if f.LLCFootprint <= 0 {
			continue
		}
		mask := f.LLCWayMask
		if mask == 0 {
			mask = allMask
		}
		nw := float64(popcount(mask))
		fpPerWay, wPerWay := f.LLCFootprint/nw, llcWeight(f)/nw
		for w := 0; w < ways; w++ {
			if mask&(1<<uint(w)) != 0 {
				wayFootprint[w] += fpPerWay
				wayWeight[w] += wPerWay
			}
		}
	}

	for _, fi := range flows {
		f := &all[fi]
		if f.LLCFootprint <= 0 {
			hits[fi] = 1
			continue
		}
		mask := f.LLCWayMask
		if mask == 0 {
			mask = allMask
		}
		nw := float64(popcount(mask))
		fpPerWay := f.LLCFootprint / nw
		wPerWay := llcWeight(f) / nw
		var alloc float64
		for w := 0; w < ways; w++ {
			if mask&(1<<uint(w)) == 0 {
				continue
			}
			if wayFootprint[w] <= wayBytes {
				// Way uncontended: everyone fits.
				alloc += fpPerWay
				continue
			}
			share := wayBytes * wPerWay / wayWeight[w]
			if share > fpPerWay {
				share = fpPerWay
			}
			alloc += share
		}
		h := alloc / f.LLCFootprint
		if h > 1 {
			h = 1
		}
		hits[fi] = h
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
