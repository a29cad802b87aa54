package trace

import "sync"

// Profile is one query's record of where its time went. The executor opens
// its phase spans on it (Profile.Begin); such a span reads the clock whether
// or not tracing is on — once at Begin, once at End — and End folds the one
// measurement into the profile and, with tracing on, into the ring. EXPLAIN
// ANALYZE, /debug/queries and the parallel query's wall-clock timing all
// read the profile, so no phase is timed twice and they cannot disagree.
//
// Spans sum per phase: the part of the span name after its last '.', so
// query.read and pquery.read are one "read" phase — the names of the
// EXPLAIN plan nodes. A nil *Profile is valid: its spans are plain BeginRank
// spans and Add drops its count.
type Profile struct {
	// QID is the query ID the profile's spans carry into the ring (0: none),
	// so a trace slice links back to the query's /debug/queries record.
	QID uint64

	mu     sync.Mutex
	phases []Phase     // first-seen order; their Stats live in stats
	stats  []phaseStat // every phase's stats, first-seen order
}

// phaseStat is one stat of phases[phase].
type phaseStat struct {
	phase int
	Stat
}

// A query has a handful of phases and a few dozen stats; the first
// allocation of each table is sized for that, so a profile costs three
// allocations whatever its queries' span counts.
const phaseCap, statCap = 8, 24

// Phase sums the spans of one phase of a Profile.
type Phase struct {
	Name  string `json:"name"`
	Spans int    `json:"spans"`
	NS    int64  `json:"ns"`     // summed span time
	MinNS int64  `json:"min_ns"` // shortest span
	MaxNS int64  `json:"max_ns"` // longest span
	// Stats are the summed integer span arguments and Add counts, in
	// first-seen order.
	Stats []Stat `json:"stats,omitempty"`
}

// Stat is one summed count of a Phase.
type Stat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Begin opens a span on rank's lane that ends into p.
func (p *Profile) Begin(name string, rank int) Span {
	if p == nil {
		return BeginRank(name, rank)
	}
	return Span{name: name, rank: int32(rank), start: now(), ok: enabled.Load(), prof: p}
}

// Add counts n toward stat of phase without a span: for what a phase
// decided rather than how long it took, e.g. why an index was unusable.
func (p *Profile) Add(phase, stat string, n int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.stat(p.phase(phase), stat).Value += n
	p.mu.Unlock()
}

// Phases returns a copy of the profile's phases in first-seen order.
func (p *Profile) Phases() []Phase {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := append([]Phase(nil), p.phases...)
	for _, s := range p.stats {
		out[s.phase].Stats = append(out[s.phase].Stats, s.Stat)
	}
	return out
}

// phaseOf returns the phase a span name belongs to: the part after its
// last '.'.
func phaseOf(span string) string {
	for i := len(span) - 1; i >= 0; i-- {
		if span[i] == '.' {
			return span[i+1:]
		}
	}
	return span
}

// add folds one span of length dur into the named phase.
func (p *Profile) add(name string, dur int64, args []Arg) {
	p.mu.Lock()
	i := p.phase(name)
	ph := &p.phases[i]
	if ph.Spans == 0 || dur < ph.MinNS {
		ph.MinNS = dur
	}
	ph.MaxNS = max(ph.MaxNS, dur)
	ph.Spans++
	ph.NS += dur
	for _, a := range args {
		if a.isNum {
			p.stat(i, a.key).Value += a.num
		}
	}
	p.mu.Unlock()
}

// phase returns the index of the named phase, appending it if new. p.mu
// is held.
func (p *Profile) phase(name string) int {
	for i := range p.phases {
		if p.phases[i].Name == name {
			return i
		}
	}
	if p.phases == nil {
		p.phases = make([]Phase, 0, phaseCap)
	}
	p.phases = append(p.phases, Phase{Name: name})
	return len(p.phases) - 1
}

// stat returns the named stat of phases[phase], appending it if new. p.mu
// is held.
func (p *Profile) stat(phase int, name string) *Stat {
	for i := range p.stats {
		if s := &p.stats[i]; s.phase == phase && s.Name == name {
			return &s.Stat
		}
	}
	if p.stats == nil {
		p.stats = make([]phaseStat, 0, statCap)
	}
	p.stats = append(p.stats, phaseStat{phase: phase, Stat: Stat{Name: name}})
	return &p.stats[len(p.stats)-1].Stat
}
