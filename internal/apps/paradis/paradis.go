// Package paradis generates synthetic per-process datasets shaped like
// the ParaDiS dislocation-dynamics profile the paper uses for its
// scalability study (Section V-C): a per-process time-series profile over
// computational kernels, MPI functions, the MPI rank, and main-loop
// iterations, with visit count and aggregate runtime for each unique
// region. With the default configuration each file holds exactly 2174
// snapshot records, and the paper's evaluation query
//
//	AGGREGATE sum(sum#time.duration), sum(aggregate.count)
//	GROUP BY kernel, mpi.function
//
// produces exactly 85 output records — the published numbers.
//
// The real 4096-rank ParaDiS dataset is not available; Figure 4 measures
// the query tool, not ParaDiS, so any dataset with the published record
// counts exercises the same code path (see DESIGN.md, substitutions).
package paradis

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
)

// Config shapes the generated dataset.
type Config struct {
	// Kernels is the number of distinct computational-kernel regions.
	Kernels int
	// MPIFunctions is the number of distinct MPI function regions.
	MPIFunctions int
	// Iterations is the number of main-loop iterations in the time series.
	Iterations int
	// ExtraRecords pads the file with initialization-phase records.
	ExtraRecords int
}

// DefaultConfig reproduces the paper's dataset shape: 2174 records per
// file (60+25 regions × 25 iterations + 49 init records) and 85 unique
// (kernel, mpi.function) groups.
func DefaultConfig() Config {
	return Config{Kernels: 60, MPIFunctions: 25, Iterations: 25, ExtraRecords: 49}
}

// RecordsPerFile returns the number of snapshot records one file holds.
func (c Config) RecordsPerFile() int {
	return (c.Kernels+c.MPIFunctions)*c.Iterations + c.ExtraRecords
}

// Groups returns the number of unique output records the paper's
// evaluation query produces over this dataset.
func (c Config) Groups() int { return c.Kernels + c.MPIFunctions }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Kernels <= 0 || c.MPIFunctions <= 0 || c.Iterations <= 0 || c.ExtraRecords < 0 {
		return fmt.Errorf("paradis: all counts must be positive (extra >= 0): %+v", c)
	}
	return nil
}

// kernelBaseNames seeds plausible ParaDiS region names; further kernels
// are numbered subroutines.
var kernelBaseNames = []string{
	"force-calc", "seg-seg-force", "mobility", "integrate", "collision",
	"remesh", "topology", "cell-charge", "migration", "cross-slip",
	"decomposition", "node-force", "osmotic-force", "remote-force",
}

// mpiBaseNames seeds the MPI function list.
var mpiBaseNames = []string{
	"MPI_Allreduce", "MPI_Sendrecv", "MPI_Barrier", "MPI_Waitall",
	"MPI_Isend", "MPI_Irecv", "MPI_Allgather", "MPI_Bcast", "MPI_Reduce",
	"MPI_Scatter", "MPI_Gather", "MPI_Alltoall", "MPI_Send", "MPI_Recv",
	"MPI_Wait", "MPI_Test", "MPI_Iprobe", "MPI_Allgatherv", "MPI_Gatherv",
	"MPI_Scatterv", "MPI_Reduce_scatter", "MPI_Scan", "MPI_Exscan",
	"MPI_Ibarrier", "MPI_Comm_split",
}

// KernelName returns the i-th kernel region name.
func KernelName(i int) string {
	if i < len(kernelBaseNames) {
		return kernelBaseNames[i]
	}
	return fmt.Sprintf("subroutine-%02d", i)
}

// MPIName returns the i-th MPI function name.
func MPIName(i int) string {
	if i < len(mpiBaseNames) {
		return mpiBaseNames[i]
	}
	return fmt.Sprintf("MPI_X%02d", i)
}

// hash64 is a small deterministic mixer for synthetic values.
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// recordWriter is the writer subset the generator needs; calformat.Writer
// and calformat.IndexingWriter both satisfy it.
type recordWriter interface {
	WriteRecord(rec snapshot.Record) error
}

// dataset holds the registry, context tree, and attribute handles shared
// by the records of one output stream (one file, or all ranks of a merged
// file).
type dataset struct {
	reg  *attr.Registry
	tree *contexttree.Tree

	kernel, mpifn, rankA, iterA, phase, count, dur attr.Attribute
}

func newDataset() *dataset {
	reg := attr.NewRegistry()
	return &dataset{
		reg:    reg,
		tree:   contexttree.New(),
		kernel: reg.MustCreate("kernel", attr.String, attr.Nested),
		mpifn:  reg.MustCreate("mpi.function", attr.String, attr.Nested),
		rankA:  reg.MustCreate("mpi.rank", attr.Int, 0),
		iterA:  reg.MustCreate("iteration", attr.Int, 0),
		phase:  reg.MustCreate("phase", attr.String, attr.Nested),
		count: reg.MustCreate("aggregate.count", attr.Uint,
			attr.AsValue|attr.Aggregatable|attr.SkipEvents),
		dur: reg.MustCreate("sum#time.duration", attr.Int,
			attr.AsValue|attr.Aggregatable|attr.SkipEvents),
	}
}

// WriteRank writes one rank's dataset as a .cali stream.
func WriteRank(w io.Writer, rank int, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	d := newDataset()
	cw := calformat.NewWriter(w, d.reg, d.tree)
	if err := d.writeRank(cw, rank, cfg); err != nil {
		return err
	}
	return cw.Flush()
}

// writeRank emits one rank's records through cw.
func (d *dataset) writeRank(cw recordWriter, rank int, cfg Config) error {
	kernel, mpifn, rankA, iterA := d.kernel, d.mpifn, d.rankA, d.iterA
	phase, count, dur := d.phase, d.count, d.dur
	tree := d.tree
	rankNode := tree.GetChild(contexttree.InvalidNode, rankA, attr.IntV(int64(rank)))

	// initialization-phase records
	initNode := tree.GetChild(rankNode, phase, attr.StringV("init"))
	for i := 0; i < cfg.ExtraRecords; i++ {
		var b snapshot.Builder
		b.AddNode(initNode)
		b.AddImmediate(count, attr.UintV(1))
		b.AddImmediate(dur, attr.IntV(int64(1000+hash64(uint64(rank*7919+i))%5000)))
		if err := cw.WriteRecord(b.Record()); err != nil {
			return err
		}
	}

	// time-series profile: one record per region per iteration
	for it := 0; it < cfg.Iterations; it++ {
		iterNode := tree.GetChild(rankNode, iterA, attr.IntV(int64(it)))
		emit := func(regionNode contexttree.NodeID, seed uint64, scale int64) error {
			var b snapshot.Builder
			b.AddNode(regionNode)
			h := hash64(seed)
			b.AddImmediate(count, attr.UintV(1+h%40))
			b.AddImmediate(dur, attr.IntV(scale+int64(h%uint64(scale))))
			return cw.WriteRecord(b.Record())
		}
		for k := 0; k < cfg.Kernels; k++ {
			node := tree.GetChild(iterNode, kernel, attr.StringV(KernelName(k)))
			// earlier-numbered kernels are hotter
			scale := int64(50000 / (k + 1))
			if err := emit(node, uint64(rank)<<32|uint64(it*1000+k), scale); err != nil {
				return err
			}
		}
		for m := 0; m < cfg.MPIFunctions; m++ {
			node := tree.GetChild(iterNode, mpifn, attr.StringV(MPIName(m)))
			scale := int64(20000 / (m + 1))
			if err := emit(node, uint64(rank)<<32|uint64(it*1000+500+m), scale); err != nil {
				return err
			}
		}
	}
	return nil
}

// GenerateDir writes per-rank dataset files rank-<n>.cali into dir and
// returns their paths in rank order.
func GenerateDir(dir string, ranks int, cfg Config) ([]string, error) {
	return generateDir(dir, ranks, cfg, false, calformat.IndexOptions{})
}

// GenerateDirIndexed is GenerateDir writing a sidecar block index
// (<file>.cali.idx) next to every dataset file.
func GenerateDirIndexed(dir string, ranks int, cfg Config, opt calformat.IndexOptions) ([]string, error) {
	return generateDir(dir, ranks, cfg, true, opt)
}

func generateDir(dir string, ranks int, cfg Config, buildIndex bool, opt calformat.IndexOptions) ([]string, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("paradis: ranks must be positive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, ranks)
	for r := 0; r < ranks; r++ {
		p := filepath.Join(dir, fmt.Sprintf("rank-%04d.cali", r))
		if err := writeRankFile(p, r, cfg, buildIndex, opt); err != nil {
			return nil, err
		}
		paths[r] = p
	}
	return paths, nil
}

func writeRankFile(path string, rank int, cfg Config, buildIndex bool, opt calformat.IndexOptions) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if !buildIndex {
		if err := WriteRank(f, rank, cfg); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	d := newDataset()
	iw := calformat.NewIndexingWriter(f, d.reg, d.tree, opt)
	if err := d.writeRank(iw, rank, cfg); err != nil {
		f.Close()
		return err
	}
	idx, err := iw.Finish()
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return calformat.WriteIndexFile(path, idx)
}

// WriteMerged writes all ranks into a single multi-block .cali file at
// path — the "one big file" shape, many index blocks behind one scan
// unit — with a sidecar block index when buildIndex is set. One registry
// and context tree span the whole stream, so definitions are shared
// across ranks exactly as a merged capture would share them.
func WriteMerged(path string, ranks int, cfg Config, buildIndex bool, opt calformat.IndexOptions) (int, error) {
	if ranks <= 0 {
		return 0, fmt.Errorf("paradis: ranks must be positive")
	}
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	d := newDataset()
	var cw recordWriter
	var iw *calformat.IndexingWriter
	var pw *calformat.Writer
	if buildIndex {
		iw = calformat.NewIndexingWriter(f, d.reg, d.tree, opt)
		cw = iw
	} else {
		pw = calformat.NewWriter(f, d.reg, d.tree)
		cw = pw
	}
	for r := 0; r < ranks; r++ {
		if err := d.writeRank(cw, r, cfg); err != nil {
			f.Close()
			return 0, err
		}
	}
	var idx *calformat.Index
	if buildIndex {
		if idx, err = iw.Finish(); err != nil {
			f.Close()
			return 0, err
		}
	} else if err := pw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if buildIndex {
		if err := calformat.WriteIndexFile(path, idx); err != nil {
			return 0, err
		}
	}
	return ranks * cfg.RecordsPerFile(), nil
}

// EvaluationQuery is the query the paper's scalability experiment runs:
// total CPU time in computational kernels and MPI functions across ranks.
const EvaluationQuery = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) " +
	"GROUP BY kernel, mpi.function WHERE not(phase)"
