package experiments

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"caligo/caliper"
	"caligo/internal/apps/cleverleaf"
	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/calql"
	"caligo/internal/contexttree"
	"caligo/internal/query"
	"caligo/internal/snapshot"
)

// CaseStudyConfig parameterizes the Section VI experiments (the paper
// runs the triple-point problem on 18 ranks with 3 refinement levels).
type CaseStudyConfig struct {
	App      cleverleaf.Config
	SampleHz float64 // sampling frequency for Figure 5 (paper: 100 Hz)
}

// DefaultCaseStudyConfig reproduces the paper's setup: 18 MPI ranks, 3
// refinement levels, 100 timesteps of the triple-point problem. The
// time-attribution figures (6-9) run the proxy in discrete-event mode
// ("timer.source": "virtual"), which makes their shapes deterministic and
// independent of host core counts; the sampling figure (5) runs real CPU
// work, since sample counts measure where cycles actually go.
func DefaultCaseStudyConfig() CaseStudyConfig {
	return CaseStudyConfig{
		App:      cleverleaf.Config{Ranks: 18, Timesteps: 100, Levels: 3, WorkScale: 1, VirtualTime: true},
		SampleHz: 100,
	}
}

// runProfiled executes the proxy with per-rank channels of the given
// configuration and returns all flushed records merged into one registry
// (the per-process datasets of a real run, combined for off-line
// analysis).
func runProfiled(app cleverleaf.Config, chCfg caliper.Config) (*attr.Registry, []snapshot.FlatRecord, error) {
	channels := make([]*caliper.Channel, app.Ranks)
	for r := range channels {
		ch, err := caliper.NewChannel(chCfg)
		if err != nil {
			return nil, nil, err
		}
		channels[r] = ch
	}
	err := cleverleaf.Run(app, func(rank int) *caliper.Thread {
		return channels[rank].Thread()
	})
	if err != nil {
		return nil, nil, err
	}
	// merge per-rank outputs into one registry via the stream format,
	// exactly how per-process .cali files combine off-line
	reg := attr.NewRegistry()
	tree := contexttree.New()
	var all []snapshot.FlatRecord
	for _, ch := range channels {
		var buf bytes.Buffer
		w := calformat.NewWriter(&buf, ch.Registry(), contexttree.New())
		if err := ch.FlushEmit(w.WriteFlat); err != nil {
			return nil, nil, err
		}
		if err := w.Flush(); err != nil {
			return nil, nil, err
		}
		recs, err := calformat.NewReader(&buf, reg, tree).ReadAll()
		if err != nil {
			return nil, nil, err
		}
		all = append(all, recs...)
	}
	return reg, all, nil
}

// offline runs an off-line query over merged records.
func offline(reg *attr.Registry, recs []snapshot.FlatRecord, queryText string) ([]snapshot.FlatRecord, error) {
	q, err := calql.Parse(queryText)
	if err != nil {
		return nil, err
	}
	return query.Run(q, reg, recs)
}

// getF fetches a named value as float64 (0 when absent).
func getF(r snapshot.FlatRecord, name string) float64 {
	if v, ok := r.GetByName(name); ok {
		return v.AsFloat()
	}
	return 0
}

// getS fetches a named value as string ("" when absent).
func getS(r snapshot.FlatRecord, name string) string {
	if v, ok := r.GetByName(name); ok {
		return v.String()
	}
	return ""
}

// Figure5 reproduces the sampling-based kernel profile: a 100 Hz
// sampling run with on-line "AGGREGATE count GROUP BY kernel", then
// off-line "AGGREGATE sum(aggregate.count) GROUP BY kernel".
func Figure5(cfg CaseStudyConfig) (*Report, error) {
	app := cfg.App
	app.VirtualTime = false // sampling measures real CPU placement
	reg, recs, err := runProfiled(app, caliper.Config{
		"services":          "sampler,aggregate",
		"sampler.frequency": fmt.Sprintf("%g", cfg.SampleHz),
		"aggregate.key":     "kernel",
		"aggregate.ops":     "count",
	})
	if err != nil {
		return nil, err
	}
	rows, err := offline(reg, recs,
		"AGGREGATE sum(aggregate.count) GROUP BY kernel ORDER BY sum#aggregate.count DESC")
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig5", Title: "Sampling profile of computational kernels (100 Hz)"}
	r.Addf("%-16s %10s", "kernel", "samples")
	samples := map[string]float64{}
	for _, row := range rows {
		name := getS(row, "kernel")
		n := getF(row, "sum#aggregate.count")
		samples[name] = n
		label := name
		if label == "" {
			label = "(outside kernels)"
		}
		r.Addf("%-16s %10.0f", label, n)
	}
	topKernel, topVal := "", 0.0
	for k, v := range samples {
		if k != "" && v > topVal {
			topKernel, topVal = k, v
		}
	}
	r.Check("calc-dt dominates the annotated kernels (paper: Figure 5)",
		topKernel == "calc-dt", "top kernel %s (%0.0f samples)", topKernel, topVal)
	r.Check("most samples fall outside annotated kernels (paper: Figure 5)",
		samples[""] > topVal, "outside=%0.0f vs top kernel=%0.0f", samples[""], topVal)
	return r, nil
}

// Figure6 reproduces the MPI function time profile:
// "AGGREGATE count, sum(time.duration) GROUP BY mpi.function".
func Figure6(cfg CaseStudyConfig) (*Report, error) {
	reg, recs, err := runProfiled(cfg.App, caliper.Config{
		"services":      "event,timer,aggregate",
		"timer.source":  timerSource(cfg.App),
		"aggregate.key": "mpi.function",
		"aggregate.ops": "count,sum(time.duration)",
	})
	if err != nil {
		return nil, err
	}
	rows, err := offline(reg, recs,
		"AGGREGATE sum(aggregate.count), sum(sum#time.duration) WHERE mpi.function "+
			"GROUP BY mpi.function ORDER BY sum#sum#time.duration DESC LIMIT 10")
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig6", Title: "MPI function profile (top 10 by total time)"}
	r.Addf("%-16s %10s %14s", "mpi.function", "count", "time (ms)")
	times := map[string]float64{}
	for _, row := range rows {
		name := getS(row, "mpi.function")
		t := getF(row, "sum#sum#time.duration") / 1e6
		times[name] = t
		r.Addf("%-16s %10.0f %14.2f", name, getF(row, "sum#aggregate.count"), t)
	}
	r.Check("MPI_Barrier dominates MPI time (paper: Figure 6)",
		times["MPI_Barrier"] > times["MPI_Allreduce"],
		"barrier=%.2fms allreduce=%.2fms", times["MPI_Barrier"], times["MPI_Allreduce"])
	r.Check("point-to-point time is comparatively small (paper: Figure 6)",
		times["MPI_Send"] < times["MPI_Barrier"] && times["MPI_Recv"] < times["MPI_Barrier"],
		"send=%.2fms recv=%.2fms", times["MPI_Send"], times["MPI_Recv"])
	return r, nil
}

// balanceStat summarizes a per-rank series.
type balanceStat struct {
	min, mean, max float64
}

func stat(vals map[int]float64, ranks int) balanceStat {
	s := balanceStat{min: math.Inf(1)}
	for r := 0; r < ranks; r++ {
		v := vals[r]
		s.mean += v
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.mean /= float64(ranks)
	return s
}

// imbalance is (max-min)/max, 0 for empty series.
func (s balanceStat) imbalance() float64 {
	if s.max == 0 {
		return 0
	}
	return (s.max - s.min) / s.max
}

// Figure7 reproduces the load-balance study:
// "AGGREGATE sum(time.duration) GROUP BY kernel, mpi.function, mpi.rank".
func Figure7(cfg CaseStudyConfig) (*Report, error) {
	reg, recs, err := runProfiled(cfg.App, caliper.Config{
		"services":      "event,timer,aggregate",
		"timer.source":  timerSource(cfg.App),
		"aggregate.key": "kernel,mpi.function,mpi.rank",
		"aggregate.ops": "sum(time.duration)",
	})
	if err != nil {
		return nil, err
	}
	rows, err := offline(reg, recs,
		"AGGREGATE sum(sum#time.duration) GROUP BY kernel, mpi.function, mpi.rank")
	if err != nil {
		return nil, err
	}
	ranks := cfg.App.Ranks
	comp := map[int]float64{} // computation time per rank (non-MPI)
	mpiT := map[int]float64{} // MPI time per rank
	perKernel := map[string]map[int]float64{}
	perMPI := map[string]map[int]float64{}
	kernelTotal := map[string]float64{}
	mpiTotal := map[string]float64{}
	for _, row := range rows {
		rank := int(getF(row, "mpi.rank"))
		t := getF(row, "sum#sum#time.duration") / 1e6
		mfn := getS(row, "mpi.function")
		k := getS(row, "kernel")
		if mfn != "" {
			mpiT[rank] += t
			if perMPI[mfn] == nil {
				perMPI[mfn] = map[int]float64{}
			}
			perMPI[mfn][rank] += t
			mpiTotal[mfn] += t
			continue
		}
		comp[rank] += t
		if k != "" {
			if perKernel[k] == nil {
				perKernel[k] = map[int]float64{}
			}
			perKernel[k][rank] += t
			kernelTotal[k] += t
		}
	}
	top2 := func(totals map[string]float64) []string {
		names := make([]string, 0, len(totals))
		for n := range totals {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return totals[names[i]] > totals[names[j]] })
		if len(names) > 2 {
			names = names[:2]
		}
		return names
	}
	r := &Report{ID: "fig7", Title: "Load balance across MPI ranks (ms; min/mean/max)"}
	r.Addf("%-22s %10s %10s %10s %10s", "category", "min", "mean", "max", "imbalance")
	add := func(name string, vals map[int]float64) balanceStat {
		s := stat(vals, ranks)
		r.Addf("%-22s %10.2f %10.2f %10.2f %9.1f%%", name, s.min, s.mean, s.max, s.imbalance()*100)
		return s
	}
	compStat := add("total computation", comp)
	add("total MPI", mpiT)
	kernels := top2(kernelTotal)
	var kernelSpread float64
	for _, k := range kernels {
		s := add("kernel "+k, perKernel[k])
		kernelSpread += s.max - s.min
	}
	for _, m := range top2(mpiTotal) {
		add("mpi "+m, perMPI[m])
	}

	momStat := stat(perKernel["advec-mom"], ranks)
	dtStat := stat(perKernel["calc-dt"], ranks)

	r.Check("total computation shows modest cross-rank imbalance (paper: small amount)",
		compStat.imbalance() > 0.01 && compStat.imbalance() < 0.5,
		"imbalance %.1f%%", compStat.imbalance()*100)
	r.Check("top-2 kernel imbalance accounts for less than half of the total (paper: Figure 7)",
		kernelSpread < (compStat.max-compStat.min)/2*1.2,
		"top2 spread %.2f ms vs total spread %.2f ms", kernelSpread, compStat.max-compStat.min)
	r.Check("advec-mom shows almost no imbalance (paper: Figure 7)",
		momStat.imbalance() < dtStat.imbalance() && momStat.imbalance() < 0.15,
		"advec-mom %.1f%% vs calc-dt %.1f%%",
		momStat.imbalance()*100, dtStat.imbalance()*100)
	return r, nil
}

// timerSource selects the timer service's time source for an app config.
func timerSource(app cleverleaf.Config) string {
	if app.VirtualTime {
		return "virtual"
	}
	return "real"
}

// caseStudyFullProfile runs the event-mode scheme-C profile (all
// annotation attributes in the key) once for Figures 8 and 9.
func caseStudyFullProfile(cfg CaseStudyConfig) (*attr.Registry, []snapshot.FlatRecord, error) {
	return runProfiled(cfg.App, caliper.Config{
		"services":      "event,timer,aggregate",
		"timer.source":  timerSource(cfg.App),
		"aggregate.key": "function,annotation,amr.level,kernel,iteration#mainloop,mpi.rank,mpi.function",
		"aggregate.ops": "count,sum(time.duration)",
	})
}

// Figure8 reproduces the per-timestep AMR level study:
// "AGGREGATE sum(time.duration) WHERE not(mpi.function)
//
//	GROUP BY amr.level, iteration#mainloop".
func Figure8(cfg CaseStudyConfig) (*Report, error) {
	reg, recs, err := caseStudyFullProfile(cfg)
	if err != nil {
		return nil, err
	}
	return figure8From(cfg, reg, recs)
}

func figure8From(cfg CaseStudyConfig, reg *attr.Registry, recs []snapshot.FlatRecord) (*Report, error) {
	rows, err := offline(reg, recs,
		"AGGREGATE sum(sum#time.duration) WHERE not(mpi.function) "+
			"GROUP BY amr.level, iteration#mainloop ORDER BY iteration#mainloop, amr.level")
	if err != nil {
		return nil, err
	}
	levels := cfg.App.Levels
	steps := cfg.App.Timesteps
	series := make([][]float64, levels)
	for l := range series {
		series[l] = make([]float64, steps)
	}
	for _, row := range rows {
		lvRaw, ok := row.GetByName("amr.level")
		if !ok {
			continue
		}
		itRaw, ok := row.GetByName("iteration#mainloop")
		if !ok {
			continue
		}
		lv, it := int(lvRaw.AsInt()), int(itRaw.AsInt())
		if lv < 0 || lv >= levels || it < 0 || it >= steps {
			continue
		}
		series[lv][it] += getF(row, "sum#sum#time.duration") / 1e6
	}
	r := &Report{ID: "fig8", Title: "Runtime per AMR level per timestep (ms)"}
	header := fmt.Sprintf("%8s", "step")
	for l := 0; l < levels; l++ {
		header += fmt.Sprintf(" %10s", fmt.Sprintf("level %d", l))
	}
	r.Lines = append(r.Lines, header)
	stride := steps / 10
	if stride < 1 {
		stride = 1
	}
	for it := 0; it < steps; it += stride {
		line := fmt.Sprintf("%8d", it)
		for l := 0; l < levels; l++ {
			line += fmt.Sprintf(" %10.2f", series[l][it])
		}
		r.Lines = append(r.Lines, line)
	}
	third := steps / 3
	sum := func(l, from, to int) float64 {
		t := 0.0
		for i := from; i < to; i++ {
			t += series[l][i]
		}
		return t
	}
	l0e, l0l := sum(0, 0, third), sum(0, 2*third, steps)
	l2e, l2l := sum(2, 0, third), sum(2, 2*third, steps)
	l1e, l1l := sum(1, 0, third), sum(1, 2*third, steps)
	r.Check("level 0 time stays almost constant (paper: Figure 8)",
		l0l < l0e*1.6 && l0e < l0l*1.6, "early %.1f ms late %.1f ms", l0e, l0l)
	r.Check("level 1 time increases slightly (paper: Figure 8)",
		l1l > l1e && l1l < l1e*2.5, "early %.1f ms late %.1f ms", l1e, l1l)
	r.Check("level 2 time increases significantly (paper: Figure 8)",
		l2l > l2e*2, "early %.1f ms late %.1f ms", l2e, l2l)
	return r, nil
}

// Figure9 reproduces the per-rank AMR level study:
// "AGGREGATE sum(time.duration) WHERE not(mpi.function)
//
//	GROUP BY amr.level, mpi.rank".
func Figure9(cfg CaseStudyConfig) (*Report, error) {
	reg, recs, err := caseStudyFullProfile(cfg)
	if err != nil {
		return nil, err
	}
	return figure9From(cfg, reg, recs)
}

func figure9From(cfg CaseStudyConfig, reg *attr.Registry, recs []snapshot.FlatRecord) (*Report, error) {
	rows, err := offline(reg, recs,
		"AGGREGATE sum(sum#time.duration) WHERE not(mpi.function) "+
			"GROUP BY amr.level, mpi.rank ORDER BY mpi.rank, amr.level")
	if err != nil {
		return nil, err
	}
	levels, ranks := cfg.App.Levels, cfg.App.Ranks
	grid := make([][]float64, ranks)
	for r := range grid {
		grid[r] = make([]float64, levels)
	}
	for _, row := range rows {
		lvRaw, ok := row.GetByName("amr.level")
		if !ok {
			continue
		}
		rkRaw, ok := row.GetByName("mpi.rank")
		if !ok {
			continue
		}
		lv, rk := int(lvRaw.AsInt()), int(rkRaw.AsInt())
		if lv < 0 || lv >= levels || rk < 0 || rk >= ranks {
			continue
		}
		grid[rk][lv] += getF(row, "sum#sum#time.duration") / 1e6
	}
	rep := &Report{ID: "fig9", Title: "Runtime per AMR level per MPI rank (ms)"}
	header := fmt.Sprintf("%6s", "rank")
	for l := 0; l < levels; l++ {
		header += fmt.Sprintf(" %10s", fmt.Sprintf("level %d", l))
	}
	rep.Lines = append(rep.Lines, header)
	for rk := 0; rk < ranks; rk++ {
		line := fmt.Sprintf("%6d", rk)
		for l := 0; l < levels; l++ {
			line += fmt.Sprintf(" %10.2f", grid[rk][l])
		}
		rep.Lines = append(rep.Lines, line)
	}
	// "the runtime proportions spent in each refinement level are similar
	// on most ranks, with some exceptions" — compare each rank's level
	// shares against the cross-rank *median* share, which is robust to
	// the outlier ranks themselves (and to single-core scheduling noise).
	shares := make([][]float64, ranks)
	for rk := 0; rk < ranks; rk++ {
		rankTotal := 0.0
		for l := 0; l < levels; l++ {
			rankTotal += grid[rk][l]
		}
		shares[rk] = make([]float64, levels)
		if rankTotal == 0 {
			continue
		}
		for l := 0; l < levels; l++ {
			shares[rk][l] = grid[rk][l] / rankTotal
		}
	}
	medianShare := make([]float64, levels)
	for l := 0; l < levels; l++ {
		col := make([]float64, ranks)
		for rk := 0; rk < ranks; rk++ {
			col[rk] = shares[rk][l]
		}
		sort.Float64s(col)
		medianShare[l] = col[ranks/2]
	}
	outliers := 0
	for rk := 0; rk < ranks; rk++ {
		for l := 0; l < levels; l++ {
			if math.Abs(shares[rk][l]-medianShare[l]) > 0.05 {
				outliers++
				break
			}
		}
	}
	rep.Check("level proportions are similar on most ranks, with exceptions (paper: Figure 9)",
		outliers >= 1 && outliers <= ranks/3,
		"%d of %d ranks deviate from the median level shares", outliers, ranks)
	if ranks > 8 {
		col := make([]float64, ranks)
		for rk := 0; rk < ranks; rk++ {
			col[rk] = grid[rk][1]
		}
		sort.Float64s(col)
		medianL1 := col[ranks/2]
		rep.Check("rank 8 spends unusually much time in level 1 (paper: Figure 9)",
			grid[8][1] > medianL1*1.2,
			"rank8 level1 %.2f ms vs median %.2f ms", grid[8][1], medianL1)
	}
	return rep, nil
}
