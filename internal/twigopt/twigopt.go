// Package twigopt implements Twig's offline profile analysis and
// link-time injection planning (§3 of the paper):
//
//  1. For every branch with sampled BTB misses, candidate injection
//     sites are the basic blocks that precede the miss by at least the
//     prefetch distance (in cycles), reconstructed from the LBR-style
//     history of each sample (Fig. 13a).
//  2. For each candidate block B and missed branch A, the conditional
//     probability P(miss at A | B executed) = timely-coverable misses
//     of A from B ÷ total executions of B (Fig. 13b). The block with
//     the highest probability wins; sites below a minimum probability
//     are dropped (some misses have no accurate predecessor — one of
//     the reasons Twig cannot reach the full ideal-BTB speedup).
//  3. Each accepted (site, branch) pair is encoded either as a
//     brprefetch instruction — when both the site→branch and
//     branch→target deltas fit the 12-bit signed offsets (Figs. 14-15)
//     — or as an entry in the sorted key-value table reached by a
//     brcoalesce instruction with an 8-bit spatial bitmask (§3.2).
package twigopt

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"twig/internal/isa"
	"twig/internal/profile"
	"twig/internal/program"
)

// Config parameterizes the analysis.
type Config struct {
	// PrefetchDistance is the minimum number of cycles a candidate
	// block must precede the miss (the paper uses 20 and sweeps 0-50 in
	// Fig. 26).
	PrefetchDistance float64
	// MinProbability drops injection sites whose conditional
	// probability of predicting the miss is below this threshold.
	MinProbability float64
	// MinMissCount ignores branches with fewer sampled misses — they
	// cannot amortize a prefetch site.
	MinMissCount int64
	// MaxSitesPerBranch bounds how many injection sites one missed
	// branch may receive. The paper's worked example (Fig. 13) covers
	// one branch from two different predecessors (C and E) because
	// different dynamic paths reach the miss; greedy set cover over the
	// branch's samples picks them.
	MaxSitesPerBranch int
	// OffsetBits is the signed width of brprefetch's two offset fields
	// (the paper uses 12).
	OffsetBits int
	// CoalesceMaskBits is the brcoalesce bitmask width (the paper
	// settles on 8; Fig. 27 sweeps 1-64).
	CoalesceMaskBits int
	// CoverageTarget stops issuing sites once branches covering this
	// fraction of sampled miss volume have been processed (branches are
	// handled in decreasing miss count). The long tail of
	// rarely-missing branches adds code bloat out of proportion to its
	// coverage.
	CoverageTarget float64
	// DisableCoalescing drops too-large-to-encode entries instead of
	// placing them in the coalesce table, and emits every fitting entry
	// as its own brprefetch — the "software BTB prefetching only"
	// configuration of Fig. 18. With coalescing on, a site with two or
	// more entries routes all of them through the key-value table and
	// one brcoalesce per mask window, which is the §3.2 mechanism for
	// containing static and dynamic instruction overhead.
	DisableCoalescing bool
	// MaxPrefetchesPerSite caps injected instructions per basic block
	// to bound code bloat at pathological join points.
	MaxPrefetchesPerSite int
	// NearestSite replaces the conditional-probability site selection
	// with "nearest timely predecessor" — an ablation of the paper's
	// key accuracy mechanism.
	NearestSite bool
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		PrefetchDistance:     20,
		MinProbability:       0.08,
		MinMissCount:         1,
		MaxSitesPerBranch:    4,
		CoverageTarget:       0.995,
		OffsetBits:           isa.OffsetBits,
		CoalesceMaskBits:     isa.CoalesceMaskBits,
		MaxPrefetchesPerSite: 24,
	}
}

// Placement records where one missed branch's prefetch was placed, for
// tests and the worked-example experiment (Fig. 13).
type Placement struct {
	// Branch is the stable ID of the covered branch.
	Branch int32
	// Block is the stable ID of the chosen injection block.
	Block int32
	// Probability is the winning conditional probability.
	Probability float64
	// Coalesced reports whether the entry went to the key-value table.
	Coalesced bool
	// BranchOffset and TargetOffset are the post-analysis deltas
	// (site→branch and branch→target) whose encodability decided
	// Coalesced.
	BranchOffset, TargetOffset int64
}

// Analysis is the full result of Analyze: the injection plan plus the
// statistics the paper's figures report.
type Analysis struct {
	// Plan is what Program.Inject consumes.
	Plan *program.InjectionPlan
	// Placements lists one entry per covered branch.
	Placements []Placement
	// CoveredMissCount is the number of sampled misses whose branch
	// received a prefetch site.
	CoveredMissCount int64
	// TotalMissCount is the number of sampled misses considered.
	TotalMissCount int64
	// NoCandidate counts branches dropped for lack of a timely
	// predecessor; LowProbability counts branches dropped by the
	// accuracy threshold.
	NoCandidate, LowProbability int
	// BranchOffsetBits and TargetOffsetBits are histograms (indexed by
	// required signed bit-width, capped at 48) over covered branches —
	// the CDFs of Figs. 14 and 15.
	BranchOffsetBits, TargetOffsetBits [49]int64
}

// Analyze runs the paper's §3 pipeline on a profile of p and returns
// the injection plan. p must be the unmodified (profiled) binary; a
// profile naming a block or branch p does not have is an error.
func Analyze(p *program.Program, prof *profile.Profile, cfg Config) (*Analysis, error) {
	if cfg.OffsetBits <= 0 || cfg.OffsetBits > 48 {
		return nil, fmt.Errorf("twigopt: offset width %d out of range", cfg.OffsetBits)
	}
	if cfg.CoalesceMaskBits < 1 || cfg.CoalesceMaskBits > 64 {
		return nil, fmt.Errorf("twigopt: coalesce mask width %d out of range", cfg.CoalesceMaskBits)
	}
	if err := checkProfile(p, prof); err != nil {
		return nil, err
	}
	an := &Analysis{Plan: &program.InjectionPlan{}}
	for _, n := range prof.MissCounts {
		an.TotalMissCount += n
	}
	encode(p, cfg, an, selectSites(p, prof, cfg, an))
	return an, nil
}

// checkProfile rejects a profile that names a branch or block p does
// not have — one from a different binary, or a corrupt file — before
// the analysis indexes its per-block arrays with those IDs.
func checkProfile(p *program.Program, prof *profile.Profile) error {
	if len(prof.BlockExecs) != len(p.Blocks) {
		return fmt.Errorf("twigopt: profile has %d blocks, binary has %d — profile is from a different binary",
			len(prof.BlockExecs), len(p.Blocks))
	}
	nBlocks := int32(len(p.Blocks))
	for i := range prof.Samples {
		s := &prof.Samples[i]
		if idx := p.IndexOf(s.Branch); idx == program.NoTarget || !p.Instrs[idx].Kind.IsDirect() {
			return fmt.Errorf("twigopt: sample %d references branch %d, binary has no such direct branch", i, s.Branch)
		}
		for _, rec := range s.History {
			for _, blk := range [2]int32{rec.FromBlock, rec.ToBlock} {
				if blk < 0 || blk >= nBlocks {
					return fmt.Errorf("twigopt: sample %d references block %d, binary has %d blocks", i, blk, nBlocks)
				}
			}
		}
	}
	return nil
}

// site is one accepted (missed branch, injection block) pair.
type site struct {
	branch int32
	block  int32
	prob   float64
}

// selectSites runs steps 1 and 2 of the analysis and returns the
// accepted sites, branch by branch in decreasing sampled-miss volume.
// It fills an's coverage counters.
//
// Step 1: per missed branch, the candidate sites are the blocks that
// precede the branch's samples by at least the prefetch distance, each
// with its cover set (the samples it precedes). Step 2: for each
// candidate block B, P(miss | B executed) = timely-coverable samples ÷
// whole-run executions of B, and a greedy set cover over the branch's
// samples picks up to MaxSitesPerBranch accurate blocks.
func selectSites(p *program.Program, prof *profile.Profile, cfg Config, an *Analysis) []site {
	maxSites := cfg.MaxSitesPerBranch
	if maxSites <= 0 || cfg.NearestSite {
		maxSites = 1
	}
	t := newCandidateTable(len(p.Blocks))
	var covered []bool
	var sites []site
	var processedMisses int64
	cutoff := int64(float64(an.TotalMissCount) * cfg.CoverageTarget)
	for gi, g := range groupByBranch(len(p.Instrs), prof) {
		if cfg.CoverageTarget > 0 && processedMisses >= cutoff {
			break
		}
		processedMisses += g.misses
		if g.misses < cfg.MinMissCount {
			continue
		}
		t.build(prof, g.samples, int32(gi+1), cfg.PrefetchDistance)
		if len(t.cands) == 0 {
			an.NoCandidate++
			continue
		}
		// Greedy set cover over this branch's samples: each round picks
		// the candidate block that covers the most still-uncovered
		// samples among blocks meeting the accuracy threshold — the
		// multi-predecessor selection of the paper's Fig. 13 example.
		nSamples := len(g.samples)
		covered = append(covered[:0], make([]bool, nSamples)...)
		nCovered := 0
		accepted := 0
		for round := 0; round < maxSites && nCovered < nSamples; round++ {
			bestIdx := -1
			bestGain := 0
			bestProb := 0.0
			for ci := range t.cands {
				c := &t.cands[ci]
				if c.used {
					continue
				}
				execs := prof.BlockExecs[c.block]
				if execs == 0 {
					continue
				}
				cover := t.coverSet(ci)
				prob := float64(len(cover)) / float64(execs)
				if prob > 1 {
					// A block can precede several distinct misses of
					// the same branch between two of its own executions
					// (loops); clamp for comparability.
					prob = 1
				}
				if !cfg.NearestSite && prob < cfg.MinProbability {
					continue
				}
				gain := 0
				for _, ord := range cover {
					if !covered[ord] {
						gain++
					}
				}
				// Candidates are in first-seen order, so a full tie goes
				// to the lower block ID explicitly.
				lower := bestIdx < 0 || c.block < t.cands[bestIdx].block
				better := gain > bestGain || (gain == bestGain && (prob > bestProb || (prob == bestProb && lower)))
				if cfg.NearestSite {
					// Ablation: ignore probability, prefer the most
					// frequently timely block (locality-only heuristic).
					better = gain > bestGain || (gain == bestGain && lower)
				}
				if better {
					bestIdx, bestGain, bestProb = ci, gain, prob
				}
			}
			// Stop when another site would cover almost nothing new.
			if bestIdx < 0 || bestGain == 0 || (round > 0 && bestGain*40 < nSamples) {
				break
			}
			for _, ord := range t.coverSet(bestIdx) {
				if !covered[ord] {
					covered[ord] = true
					nCovered++
				}
			}
			t.cands[bestIdx].used = true
			sites = append(sites, site{branch: g.branch, block: t.cands[bestIdx].block, prob: bestProb})
			accepted++
		}
		if accepted > 0 {
			// Attribute the branch's miss volume proportionally to the
			// fraction of its samples the chosen sites can reach.
			an.CoveredMissCount += g.misses * int64(nCovered) / int64(nSamples)
		} else {
			an.LowProbability++
		}
	}
	return sites
}

// branchGroup is one missed branch with its samples.
type branchGroup struct {
	branch int32
	// misses is the branch's sampled-miss volume from prof.MissCounts.
	misses int64
	// samples indexes prof.Samples in profile order, so a sample's
	// position here is its ordinal among the branch's samples.
	samples []int32
}

// groupByBranch buckets the sample indices by missed branch with one
// stable counting sort over the dense branch IDs in [0, nIDs), and
// orders the groups by decreasing miss volume (ties by ID), so the
// CoverageTarget cutoff keeps the head of the distribution and drops
// the long tail.
func groupByBranch(nIDs int, prof *profile.Profile) []branchGroup {
	groupOf := make([]int32, nIDs) // branch ID → 1 + group index
	var groups []branchGroup
	var sizes []int
	for i := range prof.Samples {
		br := prof.Samples[i].Branch
		if groupOf[br] == 0 {
			groups = append(groups, branchGroup{branch: br, misses: prof.MissCounts[br]})
			sizes = append(sizes, 0)
			groupOf[br] = int32(len(groups))
		}
		sizes[groupOf[br]-1]++
	}
	order := make([]int32, len(prof.Samples))
	next := 0
	for gi, n := range sizes {
		groups[gi].samples = order[next : next : next+n]
		next += n
	}
	for i := range prof.Samples {
		g := &groups[groupOf[prof.Samples[i].Branch]-1]
		g.samples = append(g.samples, int32(i)) // within capacity: fills order
	}
	slices.SortFunc(groups, func(a, b branchGroup) int {
		if c := cmp.Compare(b.misses, a.misses); c != 0 {
			return c
		}
		return cmp.Compare(a.branch, b.branch)
	})
	return groups
}

// candidateTable holds step 1's result for one branch at a time and is
// rebuilt in place for the next. Its per-block arrays are indexed by
// block ID and stamped with the branch that last wrote them, so nothing
// is cleared between branches and no entry is ever hashed.
type candidateTable struct {
	// stamp[b] is the stamp of the branch whose table holds block b;
	// slotOf[b] is then b's slot, its index in cands.
	stamp, slotOf []int32
	// cands lists the candidate blocks in the order the branch's
	// samples first name them.
	cands []candidate
	// last[slot] is the last sample ordinal recorded for the slot: a
	// block that appears twice in one history counts once.
	last []int32
	// pairs holds (slot, ordinal) pairs in sample order while building.
	pairs []int32
	// The cover sets in CSR form: slot s covers the sample ordinals
	// members[start[s]:start[s+1]], ascending.
	start, members []int32
}

// candidate is one candidate block of the branch being analyzed.
type candidate struct {
	block int32
	// used marks a block a greedy round has already accepted.
	used bool
}

func newCandidateTable(nBlocks int) *candidateTable {
	return &candidateTable{stamp: make([]int32, nBlocks), slotOf: make([]int32, nBlocks)}
}

// build fills the table for the branch with the given samples; stamp
// must differ from every earlier build's and from 0.
func (t *candidateTable) build(prof *profile.Profile, samples []int32, stamp int32, distance float64) {
	t.cands, t.last, t.pairs = t.cands[:0], t.last[:0], t.pairs[:0]
	for ord, si := range samples {
		s := &prof.Samples[si]
		for _, rec := range s.History {
			if s.MissCycle-rec.Cycle < distance {
				// Too close to the miss to be timely; keep walking to
				// older records.
				continue
			}
			// Both endpoints of the taken branch are blocks that
			// executed before the miss at sufficient distance. The
			// destination block is the natural injection site (the
			// prefetch runs when that block is entered).
			t.add(rec.ToBlock, int32(ord), stamp)
			t.add(rec.FromBlock, int32(ord), stamp)
		}
	}
	n := len(t.cands)
	t.start = append(t.start[:0], make([]int32, n+1)...)
	for i := 0; i < len(t.pairs); i += 2 {
		t.start[t.pairs[i]+1]++
	}
	for s := 0; s < n; s++ {
		t.start[s+1] += t.start[s]
	}
	t.members = append(t.members[:0], make([]int32, len(t.pairs)/2)...)
	next := append(t.last[:0], t.start[:n]...) // last is free again: reuse as fill cursors
	for i := 0; i < len(t.pairs); i += 2 {
		slot := t.pairs[i]
		t.members[next[slot]] = t.pairs[i+1]
		next[slot]++
	}
}

// add records that block precedes sample ord of the branch being built.
func (t *candidateTable) add(block, ord, stamp int32) {
	if t.stamp[block] != stamp {
		t.stamp[block] = stamp
		t.slotOf[block] = int32(len(t.cands))
		t.cands = append(t.cands, candidate{block: block})
		t.last = append(t.last, -1)
	}
	slot := t.slotOf[block]
	if t.last[slot] == ord {
		return
	}
	t.last[slot] = ord
	t.pairs = append(t.pairs, slot, ord)
}

// coverSet returns the ordinals of the samples that candidate slot
// precedes in time; its length is the candidate's timely count, the
// probability numerator.
func (t *candidateTable) coverSet(slot int) []int32 {
	return t.members[t.start[slot]:t.start[slot+1]]
}

// encode runs step 3 on the accepted sites and fills an's plan,
// placements and offset histograms. Offsets are computed on the
// profiled layout; the relink shifts addresses by the injected bytes (a
// few percent), which the 12-bit budget absorbs for all but boundary
// cases — exactly the imprecision a real link-time rewriter faces.
func encode(p *program.Program, cfg Config, an *Analysis, sites []site) {
	// Group entries per injection block first: a site with a single
	// encodable entry gets a brprefetch; a site with several entries —
	// or any too-large entry — routes everything through the sorted
	// key-value table and brcoalesce masks, which is how §3.2 contains
	// the code bloat of multi-parameter prefetch instructions.
	type siteEntry struct {
		branch int32
		fits   bool
		prob   float64
	}
	perBlockEntries := make(map[int32][]siteEntry)
	placementsOf := make(map[int32][]int)
	blockOrder := []int32{}
	for _, st := range sites {
		br := p.InstrByID(st.branch)
		sitePC := p.Instrs[p.BlockByID(st.block).First].PC
		branchOff := int64(br.PC) - int64(sitePC)
		targetOff := int64(p.PCOf(br.Target)) - int64(br.PC)
		bb := isa.SignedBitsFor(branchOff)
		tb := isa.SignedBitsFor(targetOff)
		an.BranchOffsetBits[clampBits(bb)]++
		an.TargetOffsetBits[clampBits(tb)]++
		if _, ok := perBlockEntries[st.block]; !ok {
			blockOrder = append(blockOrder, st.block)
		}
		perBlockEntries[st.block] = append(perBlockEntries[st.block], siteEntry{
			branch: st.branch,
			fits:   bb <= cfg.OffsetBits && tb <= cfg.OffsetBits,
			prob:   st.prob,
		})
		placementsOf[st.branch] = append(placementsOf[st.branch], len(an.Placements))
		an.Placements = append(an.Placements, Placement{
			Branch: st.branch, Block: st.block, Probability: st.prob,
			BranchOffset: branchOff, TargetOffset: targetOff,
		})
	}
	sort.Slice(blockOrder, func(i, j int) bool { return blockOrder[i] < blockOrder[j] })

	perBlock := make(map[int32]*program.Injection)
	var tableEntries []struct {
		pair  program.CoalescePair
		block int32
	}
	markCoalesced := func(branch int32) {
		for _, i := range placementsOf[branch] {
			an.Placements[i].Coalesced = true
		}
	}
	for _, blk := range blockOrder {
		entries := perBlockEntries[blk]
		if n := cfg.MaxPrefetchesPerSite; n > 0 && len(entries) > n {
			entries = entries[:n]
		}
		inj := &program.Injection{Block: blk}
		perBlock[blk] = inj
		coalesceAll := !cfg.DisableCoalescing && len(entries) >= 2
		for _, e := range entries {
			switch {
			case coalesceAll || (!e.fits && !cfg.DisableCoalescing):
				markCoalesced(e.branch)
				tableEntries = append(tableEntries, struct {
					pair  program.CoalescePair
					block int32
				}{program.CoalescePair{Branch: e.branch, Target: p.InstrByID(e.branch).Target}, blk})
			case e.fits:
				inj.Prefetches = append(inj.Prefetches, e.branch)
			default:
				// DisableCoalescing and too large: dropped (uncovered
				// at runtime — the Fig. 18 software-only configuration
				// pays this).
			}
		}
	}

	// Build the sorted coalesce table and per-site mask groups.
	an.Plan.Table = make([]program.CoalescePair, len(tableEntries))
	for i, te := range tableEntries {
		an.Plan.Table[i] = te.pair
	}
	remap := an.Plan.SortTable(p)
	slotsPerBlock := make(map[int32][]int32)
	for i, te := range tableEntries {
		slotsPerBlock[te.block] = append(slotsPerBlock[te.block], remap[i])
	}
	for _, blk := range blockOrder {
		slots := slotsPerBlock[blk]
		if len(slots) == 0 {
			continue
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
		inj := perBlock[blk]
		// Greedy spatial grouping: one brcoalesce covers all of this
		// site's slots within a window of CoalesceMaskBits consecutive
		// table entries (entries are PC-sorted, so nearby branches land
		// in the same window — the locality §3.2 exploits).
		for i := 0; i < len(slots); {
			base := slots[i]
			var mask uint64
			j := i
			for ; j < len(slots) && slots[j]-base < int32(cfg.CoalesceMaskBits); j++ {
				mask |= 1 << uint(slots[j]-base)
			}
			inj.Coalesces = append(inj.Coalesces, program.CoalesceOp{Base: base, Mask: mask})
			i = j
		}
	}

	// Emit injections in deterministic block order, skipping blocks
	// whose every entry was dropped.
	for _, blk := range blockOrder {
		inj := perBlock[blk]
		if len(inj.Prefetches) == 0 && len(inj.Coalesces) == 0 {
			continue
		}
		an.Plan.Injections = append(an.Plan.Injections, *inj)
	}
}

func clampBits(b int) int {
	if b > 48 {
		return 48
	}
	return b
}
