package experiments

import (
	"fmt"
	"time"

	"caligo/caliper"
	"caligo/internal/apps/cleverleaf"
)

// The instrumentation attributes of the overhead study (Section V-B):
// seven attributes, as in the paper.
const (
	allKeysNoIter = "function,annotation,kernel,amr.level,mpi.rank,mpi.function"
	twoKeys       = "kernel,mpi.function"
	allKeys       = "function,annotation,kernel,amr.level,mpi.rank,mpi.function,iteration#mainloop"
)

// OverheadConfig parameterizes the Figure 3 / Table I experiment.
type OverheadConfig struct {
	// App is the CleverLeaf proxy configuration (the paper runs 100
	// timesteps on 36 ranks; scale to the host).
	App cleverleaf.Config
	// Runs is the number of repetitions per configuration (paper: 5).
	Runs int
	// SampleHz is the sampling frequency for the sampled modes
	// (paper: every 10 ms = 100 Hz).
	SampleHz float64
}

// DefaultOverheadConfig returns a laptop-scale configuration: runs are a
// few seconds each (the paper's runs are ~70 s on 36 cluster cores), long
// enough that per-event costs — not run-to-run noise — dominate the
// overhead percentages.
func DefaultOverheadConfig() OverheadConfig {
	app := cleverleaf.DefaultConfig()
	app.Timesteps = 60
	app.WorkScale = 8
	return OverheadConfig{App: app, Runs: 3, SampleHz: 100}
}

// OverheadRow is one configuration's measurements.
type OverheadRow struct {
	Name          string
	Mean          time.Duration
	Min, Max      time.Duration
	Snapshots     uint64  // per rank
	OutputRecords int     // per rank (0 for baseline)
	SnapshotRate  float64 // snapshots per second per rank
}

// overheadMode describes one measurement configuration.
type overheadMode struct {
	name    string
	mode    string // "baseline", "trace", "aggregate"
	key     string
	sampled bool
}

// modes lists the paper's nine configurations: baseline, then trace and
// schemes A/B/C in sampled and event-driven collection.
func modes() []overheadMode {
	return []overheadMode{
		{name: "baseline", mode: "baseline"},
		{name: "trace (sample)", mode: "trace", sampled: true},
		{name: "scheme A (sample)", mode: "aggregate", key: allKeysNoIter, sampled: true},
		{name: "scheme B (sample)", mode: "aggregate", key: twoKeys, sampled: true},
		{name: "scheme C (sample)", mode: "aggregate", key: allKeys, sampled: true},
		{name: "trace (event)", mode: "trace"},
		{name: "scheme A (event)", mode: "aggregate", key: allKeysNoIter},
		{name: "scheme B (event)", mode: "aggregate", key: twoKeys},
		{name: "scheme C (event)", mode: "aggregate", key: allKeys},
	}
}

// channelConfig builds the runtime configuration profile for a mode.
func (m overheadMode) channelConfig(sampleHz float64) caliper.Config {
	cfg := caliper.Config{}
	switch m.mode {
	case "trace":
		if m.sampled {
			cfg["services"] = "sampler,timer,trace"
		} else {
			cfg["services"] = "event,timer,trace"
		}
	case "aggregate":
		if m.sampled {
			cfg["services"] = "sampler,timer,aggregate"
		} else {
			cfg["services"] = "event,timer,aggregate"
		}
		cfg["aggregate.key"] = m.key
		cfg["aggregate.ops"] = "count,sum(time.duration)"
	}
	if m.sampled {
		cfg["sampler.frequency"] = fmt.Sprintf("%g", sampleHz)
	}
	return cfg
}

// runOnce executes the proxy under one configuration and reports wall
// time, per-rank snapshots, and per-rank output records.
func (m overheadMode) runOnce(cfg OverheadConfig) (time.Duration, uint64, int, error) {
	channels := make([]*caliper.Channel, cfg.App.Ranks)
	if m.mode != "baseline" {
		chCfg := m.channelConfig(cfg.SampleHz)
		for r := range channels {
			ch, err := caliper.NewChannel(chCfg)
			if err != nil {
				return 0, 0, 0, err
			}
			channels[r] = ch
		}
	}
	start := time.Now()
	err := cleverleaf.Run(cfg.App, func(rank int) *caliper.Thread {
		if channels[rank] == nil {
			return nil
		}
		return channels[rank].Thread()
	})
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, 0, err
	}
	var snaps uint64
	var outputs int
	for _, ch := range channels {
		if ch == nil {
			continue
		}
		snaps += ch.Snapshots()
		switch m.mode {
		case "trace":
			outputs += ch.TraceLength()
		case "aggregate":
			outputs += ch.OutputRecords()
		}
		// flush to include teardown work (and stop samplers)
		if _, err := ch.Flush(); err != nil {
			return 0, 0, 0, err
		}
	}
	n := uint64(cfg.App.Ranks)
	return elapsed, snaps / n, outputs / int(n), nil
}

// RunOverheadStudy executes all configurations and returns their rows.
// Runs are interleaved round-robin across configurations (run 1 of every
// configuration, then run 2, ...) so slow time-correlated host noise —
// a real hazard on shared machines — spreads evenly instead of biasing
// whichever configuration it coincides with.
func RunOverheadStudy(cfg OverheadConfig) ([]OverheadRow, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	ms := modes()
	rows := make([]OverheadRow, len(ms))
	totals := make([]time.Duration, len(ms))
	for run := 0; run < cfg.Runs; run++ {
		for i, m := range ms {
			elapsed, snaps, outputs, err := m.runOnce(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.name, err)
			}
			row := &rows[i]
			row.Name = m.name
			totals[i] += elapsed
			if run == 0 || elapsed < row.Min {
				row.Min = elapsed
			}
			if elapsed > row.Max {
				row.Max = elapsed
			}
			row.Snapshots = snaps
			row.OutputRecords = outputs
			if elapsed > 0 {
				row.SnapshotRate = float64(snaps) / elapsed.Seconds()
			}
		}
	}
	for i := range rows {
		rows[i].Mean = totals[i] / time.Duration(cfg.Runs)
	}
	return rows, nil
}

// Figure3FromRows formats pre-measured overhead rows as Figure 3
// (cmd/experiments measures once for both Figure 3 and Table I).
func Figure3FromRows(rows []OverheadRow) (*Report, error) {
	r := &Report{ID: "fig3", Title: "On-line aggregation overhead (CleverLeaf proxy)"}
	// overhead is computed on the minimum over runs — the standard
	// noise-robust statistic for wall-clock comparisons on shared hosts
	base := rows[0].Min
	r.Addf("%-20s %12s %12s %12s %10s", "config", "mean", "min", "max", "overhead")
	for _, row := range rows {
		over := float64(row.Min-base) / float64(base) * 100
		r.Addf("%-20s %12v %12v %12v %9.1f%%", row.Name, row.Mean.Round(time.Millisecond),
			row.Min.Round(time.Millisecond), row.Max.Round(time.Millisecond), over)
	}

	get := func(name string) OverheadRow {
		for _, row := range rows {
			if row.Name == name {
				return row
			}
		}
		return OverheadRow{}
	}
	over := func(name string) float64 {
		return float64(get(name).Min-base) / float64(base) * 100
	}
	// Paper: sampled overheads are small (~0.85%) and indistinguishable
	// across trace/schemes; event-mode overheads are slightly higher
	// (2-3.3%); scheme C is the costliest aggregation. Absolute
	// percentages here sit above the paper's (Go annotations cost more
	// than the C++ runtime's, and shared-host noise floors are a few
	// percent), so the checks compare configurations against each other
	// with a noise margin rather than against the paper's absolute
	// numbers; see EXPERIMENTS.md for the discussion.
	sampledMax := over("trace (sample)")
	for _, n := range []string{"scheme A (sample)", "scheme B (sample)", "scheme C (sample)"} {
		if o := over(n); o > sampledMax {
			sampledMax = o
		}
	}
	eventMax := over("trace (event)")
	for _, n := range []string{"scheme A (event)", "scheme B (event)", "scheme C (event)"} {
		if o := over(n); o > eventMax {
			eventMax = o
		}
	}
	r.Check("sampled-mode overheads are small (paper: <1%)",
		sampledMax < 10, "max sampled overhead %.1f%%", sampledMax)
	r.Check("event-mode overhead exceeds sampled-mode overhead (paper: 2-3.3%% vs 0.85%%)",
		eventMax > sampledMax, "event max %.1f%% vs sampled max %.1f%%", eventMax, sampledMax)
	r.Check("scheme C (event) is not cheaper than scheme B (event), within noise",
		float64(get("scheme C (event)").Min) >= float64(get("scheme B (event)").Min)*0.95,
		"C=%v B=%v", get("scheme C (event)").Min, get("scheme B (event)").Min)
	return r, nil
}

// TableIFromRows formats pre-measured rows (shared with cmd/experiments,
// which runs the study once for both fig3 and table1).
func TableIFromRows(rows []OverheadRow) *Report {
	r := &Report{ID: "table1", Title: "Snapshots and output records per process"}
	r.Addf("%-20s %12s %16s %14s", "config", "snapshots", "output records", "snapshots/s")
	byName := map[string]OverheadRow{}
	for _, row := range rows {
		if row.Name == "baseline" {
			continue
		}
		r.Addf("%-20s %12d %16d %14.0f", row.Name, row.Snapshots, row.OutputRecords, row.SnapshotRate)
		byName[row.Name] = row
	}
	tr, a, b, c := byName["trace (event)"], byName["scheme A (event)"],
		byName["scheme B (event)"], byName["scheme C (event)"]
	r.Check("trace stores every snapshot (output records == snapshots)",
		tr.OutputRecords == int(tr.Snapshots),
		"%d records / %d snapshots", tr.OutputRecords, tr.Snapshots)
	r.Check("scheme B produces fewer records than scheme A (paper: 26 vs 266)",
		b.OutputRecords < a.OutputRecords, "B=%d A=%d", b.OutputRecords, a.OutputRecords)
	r.Check("scheme C produces far more records than scheme A (paper: 6749 vs 266)",
		c.OutputRecords > 4*a.OutputRecords, "C=%d A=%d", c.OutputRecords, a.OutputRecords)
	r.Check("scheme C output is much smaller than the trace (paper: 32x smaller)",
		c.OutputRecords*2 < tr.OutputRecords,
		"C=%d trace=%d (%.0fx smaller)", c.OutputRecords, tr.OutputRecords,
		float64(tr.OutputRecords)/float64(max(1, c.OutputRecords)))
	return r
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
