// Package cleverleaf is a proxy for the CleverLeaf structured-grid shock
// hydrodynamics mini-application with adaptive mesh refinement (AMR) that
// the paper uses for its overhead study (Section V-B) and case study
// (Section VI). The proxy executes real floating-point kernel work over
// patch-based AMR levels, exchanges halo messages and reductions over the
// emulated MPI layer, and carries the paper's seven instrumentation
// attributes: function, annotation, kernel, amr.level, iteration#mainloop,
// mpi.function, and mpi.rank.
//
// The workload reproduces the performance shapes of the paper's figures:
//
//   - calc-dt dominates the annotated kernels, and most execution time is
//     spent outside annotated kernels (Figure 5);
//   - MPI time is dominated by MPI_Barrier (imbalance-induced waiting),
//     followed by MPI_Allreduce (Figure 6);
//   - total computation shows mild cross-rank imbalance, less than half of
//     which originates in the top two kernels; advec-mom is nearly
//     balanced (Figure 7);
//   - the triple-point-like region of interest grows over time, so level-2
//     processing time rises markedly across timesteps, level 1 slightly,
//     and level 0 stays flat (Figure 8).
package cleverleaf

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"

	"caligo/caliper"
	"caligo/internal/attr"
	"caligo/internal/mpi"
	"caligo/internal/services/mpiwrap"
)

// Config parameterizes a simulation run.
type Config struct {
	// Ranks is the number of emulated MPI processes.
	Ranks int
	// Timesteps is the number of main-loop iterations.
	Timesteps int
	// Levels is the number of AMR levels (the paper's setup uses 3).
	Levels int
	// WorkScale multiplies all kernel work; 1.0 gives a run of a few
	// hundred milliseconds at the default sizes.
	WorkScale float64
	// ThreadsPerRank runs the per-level kernel sweeps on this many worker
	// goroutines per rank, each with its own measurement thread annotated
	// with a "thread.id" attribute — exercising the runtime's per-thread
	// aggregation databases (Section IV-B) under the real workload and
	// adding a thread dimension to the profiles. 0 or 1 disables
	// threading. Incompatible with VirtualTime (worker threads have no
	// communicator clock to follow).
	ThreadsPerRank int
	// VirtualTime switches the proxy to discrete-event mode: kernels
	// advance the emulated MPI virtual clock deterministically instead of
	// burning CPU, and the measurement channel should be configured with
	// "timer.source": "virtual". Time-attribution experiments (the
	// paper's Figures 6-9) use this mode: it decouples the workload's
	// timing structure from host core counts, exactly as the virtual
	// clock does for the cross-process reduction study. The overhead
	// study (Figure 3) must use real time.
	VirtualTime bool
}

// DefaultConfig returns a laptop-scale version of the paper's setup
// (the paper runs 36 ranks, 100 timesteps on a cluster node).
func DefaultConfig() Config {
	return Config{Ranks: 4, Timesteps: 50, Levels: 3, WorkScale: 1}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Ranks <= 0 {
		return fmt.Errorf("cleverleaf: Ranks must be positive")
	}
	if c.Timesteps <= 0 {
		return fmt.Errorf("cleverleaf: Timesteps must be positive")
	}
	if c.Levels <= 0 || c.Levels > 8 {
		return fmt.Errorf("cleverleaf: Levels must be in 1..8")
	}
	if c.WorkScale <= 0 {
		return fmt.Errorf("cleverleaf: WorkScale must be positive")
	}
	if c.ThreadsPerRank < 0 {
		return fmt.Errorf("cleverleaf: ThreadsPerRank must be non-negative")
	}
	if c.ThreadsPerRank > 1 && c.VirtualTime {
		return fmt.Errorf("cleverleaf: ThreadsPerRank and VirtualTime are mutually exclusive")
	}
	return nil
}

// kernelCost lists the computational kernels with their per-patch cost
// weights. calc-dt dominates, as in the paper's Figure 5.
var kernelCost = []struct {
	name string
	cost float64
}{
	{"calc-dt", 3.0},
	{"advec-cell", 0.7},
	{"advec-mom", 0.7},
	{"pdv", 0.5},
	{"viscosity", 0.5},
	{"accelerate", 0.4},
	{"flux-calc", 0.4},
	{"ideal-gas", 0.3},
	{"reset", 0.2},
	{"update-halo", 0.1},
}

// infrastructureCost is unannotated per-level work (AMR clustering,
// regridding, SAMRAI bookkeeping): most samples land here, outside the
// annotated kernels (Figure 5's "everything else").
const infrastructureCost = 7.0

// workUnit is the busy-work iteration count for one cost unit at
// WorkScale 1.
const workUnit = 2000

// virtualNsPerUnit is the modeled duration of one cost unit in
// VirtualTime mode (50 µs, giving kernels of hundreds of microseconds at
// the default sizes, in the magnitude range of the paper's run).
const virtualNsPerUnit = 50_000

// sink defeats dead-code elimination of the busy work. It is only ever
// written for impossible accumulator values, so concurrent workers never
// actually touch it (keeping busyWork race-free).
var sink float64

// busyWork burns CPU proportional to units. It yields the processor every
// few microseconds: on hosts with fewer cores than ranks this gives the
// emulated processes fair fine-grained interleaving (instead of ~10 ms OS
// timeslices, which would swamp per-region time attribution with noise)
// and lets the sampling service observe in-kernel state.
func busyWork(units float64) {
	n := int(units * workUnit)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += math.Sqrt(float64(i&1023) + 1.5)
		if i&2047 == 2047 {
			runtime.Gosched()
		}
	}
	if acc > math.MaxFloat64/2 { // never true; keeps acc (and the loop) live
		sink = acc
	}
}

// skew returns a deterministic per-rank factor in [-1, 1].
func skew(rank int, phase float64) float64 {
	return math.Sin(float64(rank)*2.399 + phase)
}

// patchCount models the AMR patch distribution: the coarse level is
// constant; refined levels track the triple-point vortex region, which
// grows as the simulation progresses.
func patchCount(rank, level, step int) float64 {
	base := 8.0 / float64(uint(1)<<uint(level)) // 8, 4, 2, ...
	growth := 0.0
	switch {
	case level == 1:
		growth = 0.03
	case level >= 2:
		base = 1.0
		growth = 0.20
	}
	n := base + growth*float64(step)
	// mild overall imbalance from the domain decomposition
	n *= 1 + 0.05*skew(rank, 0)
	return n
}

// infraExtra returns per-rank exceptions in the AMR infrastructure work
// for specific levels — the anomalies the paper observes on ranks 8 and 7
// in Figure 9. They affect only unannotated clustering/regrid work, so
// the computational kernels stay balanced (Figure 7's advec-mom).
func infraExtra(rank, level int) float64 {
	if rank == 8 && level == 1 {
		return 2.2
	}
	if rank == 7 && level == 0 {
		return 0.4
	}
	return 1
}

// kernelImbalance returns the per-rank multiplier for one kernel:
// advec-mom is balanced; calc-dt carries extra imbalance; infrastructure
// work carries the rest (so the top-2 kernels explain less than half of
// the total imbalance, as in Figure 7).
func kernelImbalance(rank int, kernel string) float64 {
	switch kernel {
	case "advec-mom":
		return 1
	case "calc-dt":
		return 1 + 0.12*skew(rank, 1.3)
	case "": // infrastructure
		return 1 + 0.15*skew(rank, 2.1)
	default:
		return 1 + 0.03*skew(rank, 0.7)
	}
}

// annotator abstracts the instrumentation calls so the baseline
// configuration runs the identical code path with no annotation cost.
type annotator struct {
	th *caliper.Thread
}

func (a annotator) begin(name string, v any) {
	if a.th != nil {
		if err := a.th.Begin(name, v); err != nil {
			panic(err)
		}
	}
}

func (a annotator) end(name string) {
	if a.th != nil {
		if err := a.th.End(name); err != nil {
			panic(err)
		}
	}
}

func (a annotator) set(name string, v any) {
	if a.th != nil {
		if err := a.th.Set(name, v); err != nil {
			panic(err)
		}
	}
}

// sumCombine adds float64 payloads (the dt reduction).
func sumCombine(x, y []byte) ([]byte, error) {
	a := math.Float64frombits(binary.LittleEndian.Uint64(x))
	b := math.Float64frombits(binary.LittleEndian.Uint64(y))
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, math.Float64bits(a+b))
	return out, nil
}

// Run executes the simulation. newThread supplies the per-rank
// measurement thread (or nil for the uninstrumented baseline); it is
// called once per rank from that rank's goroutine. With ThreadsPerRank >
// 1, newThread is also called once per worker (from the worker's
// goroutine), so every thread of execution gets its own handle, as the
// runtime requires.
func Run(cfg Config, newThread func(rank int) *caliper.Thread) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	world, err := mpi.NewWorld(cfg.Ranks)
	if err != nil {
		return err
	}
	return world.Run(func(c *mpi.Comm) error {
		return runRank(cfg, c, newThread)
	})
}

// simCtx bundles one rank's simulation state.
type simCtx struct {
	cfg     Config
	comm    *mpiwrap.Comm
	an      annotator
	th      *caliper.Thread
	workers *workerPool
}

// workerPool runs kernel sweeps on per-rank worker goroutines, each with
// its own measurement thread (annotated with thread.id). Tasks are whole
// kernel sweeps; the pool owner blocks until all workers complete one.
type workerPool struct {
	tasks   []chan workerTask
	done    chan struct{}
	workers int
}

type workerTask struct {
	kernel string
	level  int
	units  float64
}

// newWorkerPool starts n workers. newThread supplies each worker's
// measurement thread (may return nil for uninstrumented runs).
func newWorkerPool(n int, newThread func(worker int) *caliper.Thread) *workerPool {
	p := &workerPool{
		tasks:   make([]chan workerTask, n),
		done:    make(chan struct{}, n),
		workers: n,
	}
	for w := 0; w < n; w++ {
		p.tasks[w] = make(chan workerTask)
		go func(w int) {
			an := annotator{th: newThread(w)}
			an.set("thread.id", w)
			for task := range p.tasks[w] {
				an.begin("amr.level", task.level)
				an.begin("kernel", task.kernel)
				busyWork(task.units)
				an.end("kernel")
				an.end("amr.level")
				p.done <- struct{}{}
			}
		}(w)
	}
	return p
}

// sweep distributes one kernel's work evenly over the workers and waits.
func (p *workerPool) sweep(kernel string, level int, units float64) {
	per := units / float64(p.workers)
	for w := 0; w < p.workers; w++ {
		p.tasks[w] <- workerTask{kernel: kernel, level: level, units: per}
	}
	for w := 0; w < p.workers; w++ {
		<-p.done
	}
}

// close stops the workers.
func (p *workerPool) close() {
	for _, ch := range p.tasks {
		close(ch)
	}
}

// work executes units of computation: real CPU in measured mode, a
// deterministic virtual-clock advance in VirtualTime mode.
func (sc *simCtx) work(units float64) {
	if !sc.cfg.VirtualTime {
		busyWork(units)
		return
	}
	sc.comm.Inner().Advance(units * virtualNsPerUnit)
	if sc.th != nil {
		sc.th.SetVirtualTime(int64(sc.comm.Inner().Clock()))
	}
}

// runRank is one emulated process's simulation.
func runRank(cfg Config, c *mpi.Comm, newThread func(rank int) *caliper.Thread) error {
	th := newThread(c.Rank())
	an := annotator{th: th}
	if th != nil {
		ch := th.Channel()
		// non-nested attributes must be pre-created; annotation defaults
		// would give them stack semantics
		if _, err := ch.CreateAttribute("iteration#mainloop", attr.Int, 0); err != nil {
			return err
		}
		if _, err := ch.CreateAttribute("thread.id", attr.Int, 0); err != nil {
			return err
		}
		if _, err := ch.CreateAttribute("amr.level", attr.Int, attr.Nested); err != nil {
			return err
		}
	}
	comm, err := mpiwrap.Wrap(c, th)
	if err != nil {
		return err
	}
	sc := &simCtx{cfg: cfg, comm: comm, an: an, th: th}
	if cfg.ThreadsPerRank > 1 {
		sc.workers = newWorkerPool(cfg.ThreadsPerRank, func(int) *caliper.Thread {
			if th == nil {
				return nil
			}
			return newThread(c.Rank())
		})
		defer sc.workers.close()
	}

	an.begin("function", "main")
	an.begin("annotation", "init")
	sc.work(4 * cfg.WorkScale)
	an.end("annotation")

	an.begin("annotation", "computation")
	an.begin("function", "hydro")
	for step := 0; step < cfg.Timesteps; step++ {
		an.set("iteration#mainloop", step)
		if err := sc.timestep(step); err != nil {
			return err
		}
	}
	an.end("function")
	an.end("annotation")
	an.end("function")
	return nil
}

// timestep runs one main-loop iteration: per-level kernel sweeps, halo
// exchange, the end-of-step barrier, and global reductions.
func (sc *simCtx) timestep(step int) error {
	cfg, comm, an := sc.cfg, sc.comm, sc.an
	rank := comm.Rank()
	for level := 0; level < cfg.Levels; level++ {
		an.begin("amr.level", level)
		patches := patchCount(rank, level, step)

		// double-buffered halo exchange, the analog of the paper's
		// MPI_Isend/Irecv with computation overlap: receive the halo
		// posted in the previous timestep (guaranteed delivered — the
		// end-of-step barrier ordered it), then post this step's
		if comm.Size() > 1 {
			if step > 0 {
				if err := haloRecv(comm, level); err != nil {
					return err
				}
			}
			if err := haloSend(comm, level); err != nil {
				return err
			}
		}

		// unannotated AMR infrastructure (clustering, regrid bookkeeping)
		sc.work(infrastructureCost * patches * cfg.WorkScale *
			kernelImbalance(rank, "") * infraExtra(rank, level))

		for _, k := range kernelCost {
			units := k.cost * patches * cfg.WorkScale * kernelImbalance(rank, k.name)
			if sc.workers != nil {
				sc.workers.sweep(k.name, level, units)
				continue
			}
			an.begin("kernel", k.name)
			sc.work(units)
			an.end("kernel")
		}
		an.end("amr.level")
	}

	// end-of-step synchronization: imbalanced ranks wait here, which is
	// why MPI_Barrier dominates the MPI profile (Figure 6)
	if err := comm.Barrier(); err != nil {
		return err
	}
	// global reductions on the synchronized ranks (dt, mass, energy)
	dt := make([]byte, 8)
	binary.LittleEndian.PutUint64(dt, math.Float64bits(1e-3))
	for i := 0; i < 3; i++ {
		if _, err := comm.Allreduce(dt, sumCombine); err != nil {
			return err
		}
	}
	return nil
}

// haloSend posts boundary data to both ring neighbours (inboxes are
// buffered, so these complete without waiting — the MPI_Isend analog).
func haloSend(comm *mpiwrap.Comm, level int) error {
	p := comm.Size()
	rank := comm.Rank()
	left := (rank - 1 + p) % p
	right := (rank + 1) % p
	payload := make([]byte, 256)
	if err := comm.Send(right, 100+level, payload); err != nil {
		return err
	}
	return comm.Send(left, 1100+level, payload)
}

// haloRecv completes the exchange by receiving both neighbours' boundary
// data posted in haloSend.
func haloRecv(comm *mpiwrap.Comm, level int) error {
	p := comm.Size()
	rank := comm.Rank()
	left := (rank - 1 + p) % p
	right := (rank + 1) % p
	if _, _, err := comm.Recv(left, 100+level); err != nil {
		return err
	}
	_, _, err := comm.Recv(right, 1100+level)
	return err
}
