package history

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"

	"caligo/internal/core"
	"caligo/internal/snapshot"
)

// ClusterScheme returns the aggregation scheme the telemetry-reduction
// epoch runs over: per-rank window records keyed by metric identity and
// rank, reduced with the same core.DB merge kernel application data uses.
// Counters sum their window deltas, histogram bins add bin-wise, gauges
// keep min and max; max#time.window.start dates each group's freshest
// window.
func ClusterScheme() *core.Scheme {
	return core.MustScheme(
		[]string{AttrMetricName, AttrMetricKind, AttrRank, AttrBinUpper},
		[]core.OpSpec{
			{Kind: core.OpCount},
			{Kind: core.OpSum, Target: AttrDelta},
			{Kind: core.OpMax, Target: AttrTotal},
			{Kind: core.OpMin, Target: AttrValue},
			{Kind: core.OpMax, Target: AttrValue},
			{Kind: core.OpSum, Target: AttrCount},
			{Kind: core.OpSum, Target: AttrSum},
			{Kind: core.OpSum, Target: AttrBinCount},
			{Kind: core.OpMax, Target: AttrWindowStart},
		})
}

// RankValue is one rank's contribution to a cluster metric.
type RankValue struct {
	Rank  int    `json:"rank"`
	Delta uint64 `json:"delta,omitempty"` // counter: summed window deltas
	Total uint64 `json:"total,omitempty"` // counter: latest cumulative value
	Min   int64  `json:"min,omitempty"`   // gauge: min over windows
	Max   int64  `json:"max,omitempty"`   // gauge: max over windows
	Last  int64  `json:"last,omitempty"`  // gauge: value in the latest epoch
	Count uint64 `json:"count,omitempty"` // histogram: summed observation counts
	Sum   int64  `json:"sum,omitempty"`   // histogram: summed value increments
}

// ClusterBin is one merged histogram bin (counts summed across ranks).
type ClusterBin struct {
	Upper float64 `json:"upper"`
	Count uint64  `json:"count"`
}

// ClusterMetric is one metric's cluster-wide aggregate.
type ClusterMetric struct {
	Name  string       `json:"name"`
	Kind  string       `json:"kind"`
	Delta uint64       `json:"delta,omitempty"` // counter: sum across ranks
	Min   int64        `json:"min,omitempty"`   // gauge: min across ranks
	Max   int64        `json:"max,omitempty"`   // gauge: max across ranks
	Count uint64       `json:"count,omitempty"` // histogram: total observations
	Sum   int64        `json:"sum,omitempty"`   // histogram: total value
	Bins  []ClusterBin `json:"bins,omitempty"`  // histogram: bin-wise merge
	Ranks []RankValue  `json:"ranks,omitempty"`
}

// Quantile estimates the q-quantile of a merged histogram metric from its
// cluster bins by cumulative linear interpolation — the same estimator
// obs.Family.HistQuantile applies to a /debug/metrics scrape, so the
// cluster view and a hand-merged union of per-rank scrapes agree.
func (m *ClusterMetric) Quantile(q float64) (float64, bool) {
	if len(m.Bins) == 0 {
		return 0, false
	}
	var total float64
	for _, b := range m.Bins {
		total += float64(b.Count)
	}
	if total == 0 {
		return 0, true
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * total
	cum, prevUpper := 0.0, 0.0
	for i, b := range m.Bins {
		prevCum := cum
		cum += float64(b.Count)
		if cum >= rank {
			if math.IsInf(b.Upper, 1) {
				return prevUpper, true
			}
			if i == 0 || cum == prevCum {
				return b.Upper, true
			}
			frac := (rank - prevCum) / (cum - prevCum)
			return prevUpper + frac*(b.Upper-prevUpper), true
		}
		prevUpper = b.Upper
	}
	return prevUpper, true
}

// ClusterView is the cluster-wide observability aggregate the root
// publishes after each telemetry-reduction epoch — the /debug/cluster
// body.
type ClusterView struct {
	UpdatedUnixNS int64           `json:"updated_unix_ns"`
	Epochs        uint64          `json:"epochs"`
	Ranks         int             `json:"ranks"`
	SlowestRank   int             `json:"slowest_rank"` // -1 when unknown
	SlowestNS     int64           `json:"slowest_ns,omitempty"`
	Metrics       []ClusterMetric `json:"metrics"`
}

// slownessMetrics name the per-rank gauges consulted (in order) to pick
// the slowest rank: reduction-epoch sync lag first, then the parallel
// query's local phase time.
var slownessMetrics = []string{
	"caligo.rnet.sync.lag.ns",
	"caligo.pquery.local.ns",
}

// BuildClusterView renders the root's cumulative telemetry database as a
// ClusterView. epoch, when non-nil, is the current epoch's merged delta
// alone; per-rank gauge Last values come from it (a gauge's freshest
// sample is in the newest windows). Pass epoch == global on the first
// epoch.
func BuildClusterView(global, epoch *core.DB, epochs uint64, nowNS int64) (*ClusterView, error) {
	rows, err := global.FlushRecords()
	if err != nil {
		return nil, err
	}
	view := &ClusterView{UpdatedUnixNS: nowNS, Epochs: epochs, SlowestRank: -1}

	type key struct {
		name, kind string
	}
	metrics := map[key]*ClusterMetric{}
	var order []key
	ranks := map[int]bool{}
	lastByRank := map[key]map[int]int64{}

	get := func(k key) *ClusterMetric {
		m := metrics[k]
		if m == nil {
			m = &ClusterMetric{Name: k.name, Kind: k.kind}
			metrics[k] = m
			order = append(order, k)
		}
		return m
	}

	if epoch != nil && epoch != global {
		erows, err := epoch.FlushRecords()
		if err != nil {
			return nil, err
		}
		for _, row := range erows {
			k, rank, isBin, ok := rowIdentity(row)
			if !ok || isBin || k.kind != "gauge" {
				continue
			}
			if lastByRank[k] == nil {
				lastByRank[k] = map[int]int64{}
			}
			if v, ok := row.GetByName("max#" + AttrValue); ok {
				lastByRank[k][rank] = v.AsInt()
			}
		}
	}

	for _, row := range rows {
		k, rank, isBin, ok := rowIdentity(row)
		if !ok {
			continue
		}
		ranks[rank] = true
		m := get(k)
		if isBin {
			upper, _ := row.GetByName(AttrBinUpper)
			var n uint64
			if v, ok := row.GetByName("sum#" + AttrBinCount); ok {
				n = v.AsUint()
			}
			m.Bins = append(m.Bins, ClusterBin{Upper: upper.AsFloat(), Count: n})
			continue
		}
		rv := RankValue{Rank: rank}
		switch k.kind {
		case "counter":
			if v, ok := row.GetByName("sum#" + AttrDelta); ok {
				rv.Delta = v.AsUint()
				m.Delta += rv.Delta
			}
			if v, ok := row.GetByName("max#" + AttrTotal); ok {
				rv.Total = v.AsUint()
			}
		case "gauge":
			if v, ok := row.GetByName("min#" + AttrValue); ok {
				rv.Min = v.AsInt()
			}
			if v, ok := row.GetByName("max#" + AttrValue); ok {
				rv.Max = v.AsInt()
				rv.Last = rv.Max
			}
			if last, ok := lastByRank[k][rank]; ok {
				rv.Last = last
			}
			if len(m.Ranks) == 0 || rv.Min < m.Min {
				m.Min = rv.Min
			}
			if len(m.Ranks) == 0 || rv.Max > m.Max {
				m.Max = rv.Max
			}
		case "histogram":
			if v, ok := row.GetByName("sum#" + AttrCount); ok {
				rv.Count = v.AsUint()
				m.Count += rv.Count
			}
			if v, ok := row.GetByName("sum#" + AttrSum); ok {
				rv.Sum = v.AsInt()
				m.Sum += rv.Sum
			}
		}
		m.Ranks = append(m.Ranks, rv)
	}

	// merge duplicate bin rows (same upper across ranks) and sort
	for _, k := range order {
		m := metrics[k]
		if len(m.Bins) > 1 {
			sort.Slice(m.Bins, func(i, j int) bool { return m.Bins[i].Upper < m.Bins[j].Upper })
			out := m.Bins[:1]
			for _, b := range m.Bins[1:] {
				if last := &out[len(out)-1]; last.Upper == b.Upper {
					last.Count += b.Count
				} else {
					out = append(out, b)
				}
			}
			m.Bins = out
		}
		sort.Slice(m.Ranks, func(i, j int) bool { return m.Ranks[i].Rank < m.Ranks[j].Rank })
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].name != order[j].name {
			return order[i].name < order[j].name
		}
		return order[i].kind < order[j].kind
	})
	for _, k := range order {
		view.Metrics = append(view.Metrics, *metrics[k])
	}
	view.Ranks = len(ranks)

	// slowest rank: largest per-rank value of the first slowness gauge
	// present in the view
	for _, name := range slownessMetrics {
		m := metrics[key{name: name, kind: "gauge"}]
		if m == nil {
			continue
		}
		for _, rv := range m.Ranks {
			if view.SlowestRank < 0 || rv.Max > view.SlowestNS {
				view.SlowestRank, view.SlowestNS = rv.Rank, rv.Max
			}
		}
		break
	}
	return view, nil
}

// rowIdentity extracts a flushed cluster-scheme row's metric identity.
// isBin reports a histogram bin row (bin.upper present).
func rowIdentity(row snapshot.FlatRecord) (k struct{ name, kind string }, rank int, isBin bool, ok bool) {
	nameV, okN := row.GetByName(AttrMetricName)
	kindV, okK := row.GetByName(AttrMetricKind)
	rankV, okR := row.GetByName(AttrRank)
	if !okN || !okK || !okR {
		return k, 0, false, false
	}
	k.name, k.kind = nameV.String(), kindV.String()
	rank = int(rankV.AsInt())
	_, isBin = row.GetByName(AttrBinUpper)
	return k, rank, isBin, true
}

// The process-wide published cluster view (the root of the reduction
// publishes; /debug/cluster serves).
var (
	clusterMu   sync.RWMutex
	clusterView *ClusterView
)

// PublishCluster installs v as the process's current cluster view.
func PublishCluster(v *ClusterView) {
	clusterMu.Lock()
	clusterView = v
	clusterMu.Unlock()
}

// LatestCluster returns the most recently published cluster view, or nil.
func LatestCluster() *ClusterView {
	clusterMu.RLock()
	defer clusterMu.RUnlock()
	return clusterView
}

// WriteClusterJSON writes the published cluster view as JSON (an empty
// view when no epoch has published yet) — the /debug/cluster body.
func WriteClusterJSON(w io.Writer) error {
	v := LatestCluster()
	if v == nil {
		v = &ClusterView{SlowestRank: -1, Metrics: []ClusterMetric{}}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WindowsDoc is the /debug/history JSON document.
type WindowsDoc struct {
	Count   int      `json:"count"`
	Windows []Window `json:"windows"`
}

// FilterWindows applies the /debug/history query filters: lastN > 0 keeps
// only the most recent N windows, rank >= 0 keeps only windows stamped
// with that rank.
func FilterWindows(windows []Window, lastN, rank int) []Window {
	out := windows
	if rank >= 0 {
		out = nil
		for _, w := range windows {
			if w.Rank == rank {
				out = append(out, w)
			}
		}
	}
	if lastN > 0 && len(out) > lastN {
		out = out[len(out)-lastN:]
	}
	return out
}

// WriteWindowsJSON writes windows as the /debug/history JSON document.
func WriteWindowsJSON(w io.Writer, windows []Window) error {
	if windows == nil {
		windows = []Window{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(WindowsDoc{Count: len(windows), Windows: windows})
}
