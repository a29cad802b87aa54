package main

import (
	"fmt"
	"os"
	"path/filepath"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
)

// shape is the seed-independent part of a corpus: how many files and how
// many records of each kind per file. Every record count the benchmark
// reports follows from a shape, so counts repeat exactly across seeds.
type shape struct {
	files, kernels, mpiFuncs, iterations, initRecords int
}

func (s shape) recordsPerIteration() int { return s.kernels + s.mpiFuncs }
func (s shape) recordsPerFile() int {
	return s.recordsPerIteration()*s.iterations + s.initRecords
}
func (s shape) records() int { return s.files * s.recordsPerFile() }

// The ParaDiS shape is the paper's published one (Section V-C): 2174
// records per file and 85 groups under the evaluation query. The
// reduce shape is the Figure 4 benchmark's small per-rank file.
var (
	paradisShape = shape{files: 16, kernels: 60, mpiFuncs: 25, iterations: 25, initRecords: 49}
	reduceShape  = shape{files: 64, kernels: 20, mpiFuncs: 10, iterations: 10, initRecords: 4}

	tinyParadisShape = shape{files: 4, kernels: 6, mpiFuncs: 3, iterations: 3, initRecords: 2}
	tinyReduceShape  = shape{files: 8, kernels: 4, mpiFuncs: 2, iterations: 2, initRecords: 1}
)

// record is one generated snapshot record as the reference evaluator sees
// it: plain fields, no registry, no context tree. Empty strings and
// iter < 0 mean the attribute is absent.
type record struct {
	rank, iter           int
	kernel, mpiFn, phase string
	count                uint64
	dur                  int64
}

// mix is splitmix64's finalizer: the generator's only source of values.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func kernelName(i int) string { return fmt.Sprintf("kernel-%02d", i) }
func mpiName(i int) string    { return fmt.Sprintf("MPI_Fn%02d", i) }

// iterationRecords generates one main-loop iteration of one rank: a record
// per kernel and per MPI function. Earlier-numbered regions are hotter, and
// a region's duration varies by less than 2x, so the widest sum — which
// sets the rendered column width — has the same digit count on every seed.
func iterationRecords(s shape, seed uint64, rank, iter int) []record {
	recs := make([]record, 0, s.recordsPerIteration())
	value := func(region int, scale int64) (uint64, int64) {
		h := mix(seed ^ mix(uint64(rank)<<40|uint64(iter)<<20|uint64(region)))
		return 1 + h%40, scale + int64((h>>8)%uint64(scale))
	}
	for k := 0; k < s.kernels; k++ {
		c, d := value(k, int64(50000/(k+1)))
		recs = append(recs, record{rank: rank, iter: iter, kernel: kernelName(k), count: c, dur: d})
	}
	for m := 0; m < s.mpiFuncs; m++ {
		c, d := value(1000+m, int64(20000/(m+1)))
		recs = append(recs, record{rank: rank, iter: iter, mpiFn: mpiName(m), count: c, dur: d})
	}
	return recs
}

// rankRecords generates the records of one file: the initialization-phase
// records, then the iterations in order.
func rankRecords(s shape, seed uint64, rank int) []record {
	recs := make([]record, 0, s.recordsPerFile())
	for i := 0; i < s.initRecords; i++ {
		h := mix(seed ^ mix(uint64(rank)<<40|1<<39|uint64(i)))
		recs = append(recs, record{rank: rank, iter: -1, phase: "init", count: 1, dur: 1000 + int64(h%5000)})
	}
	for it := 0; it < s.iterations; it++ {
		recs = append(recs, iterationRecords(s, seed, rank, it)...)
	}
	return recs
}

// corpus is a generated dataset: the files on disk and the same records in
// memory for the reference evaluator.
type corpus struct {
	shape   shape
	seed    uint64
	files   []string
	records []record
}

// recordWriter is what writeStream needs of calformat.Writer and
// calformat.IndexingWriter.
type recordWriter interface {
	WriteRecord(snapshot.Record) error
}

// writeStream encodes records as a .cali stream the way an instrumented
// application wrote them: region attributes live in the context tree below
// the rank (and iteration) node, measurement values are immediate.
func writeStream(w recordWriter, reg *attr.Registry, tree *contexttree.Tree, recs []record) error {
	kernel := reg.MustCreate("kernel", attr.String, attr.Nested)
	mpiFn := reg.MustCreate("mpi.function", attr.String, attr.Nested)
	rank := reg.MustCreate("mpi.rank", attr.Int, 0)
	iter := reg.MustCreate("iteration", attr.Int, 0)
	phase := reg.MustCreate("phase", attr.String, attr.Nested)
	valueProps := attr.AsValue | attr.Aggregatable | attr.SkipEvents
	count := reg.MustCreate("aggregate.count", attr.Uint, valueProps)
	dur := reg.MustCreate("sum#time.duration", attr.Int, valueProps)
	for i := range recs {
		r := &recs[i]
		n := tree.GetChild(contexttree.InvalidNode, rank, attr.IntV(int64(r.rank)))
		if r.iter >= 0 {
			n = tree.GetChild(n, iter, attr.IntV(int64(r.iter)))
		}
		switch {
		case r.phase != "":
			n = tree.GetChild(n, phase, attr.StringV(r.phase))
		case r.kernel != "":
			n = tree.GetChild(n, kernel, attr.StringV(r.kernel))
		case r.mpiFn != "":
			n = tree.GetChild(n, mpiFn, attr.StringV(r.mpiFn))
		}
		var b snapshot.Builder
		b.AddNode(n)
		b.AddImmediate(count, attr.UintV(r.count))
		b.AddImmediate(dur, attr.IntV(r.dur))
		if err := w.WriteRecord(b.Record()); err != nil {
			return err
		}
	}
	return nil
}

// writeFile writes one rank's records to path, with a sidecar block index
// when indexed is set.
func writeFile(path string, recs []record, indexed bool) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	reg, tree := attr.NewRegistry(), contexttree.New()
	if !indexed {
		w := calformat.NewWriter(f, reg, tree)
		if err := writeStream(w, reg, tree, recs); err != nil {
			return err
		}
		return w.Flush()
	}
	iw := calformat.NewIndexingWriter(f, reg, tree, calformat.IndexOptions{})
	if err := writeStream(iw, reg, tree, recs); err != nil {
		return err
	}
	idx, err := iw.Finish()
	if err != nil {
		return err
	}
	return calformat.WriteIndexFile(path, idx)
}

// generateCorpus writes one file per rank into dir and keeps the records.
func generateCorpus(dir string, s shape, seed uint64, indexed bool) (*corpus, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &corpus{shape: s, seed: seed}
	for rank := 0; rank < s.files; rank++ {
		recs := rankRecords(s, seed, rank)
		path := filepath.Join(dir, fmt.Sprintf("rank-%04d.cali", rank))
		if err := writeFile(path, recs, indexed); err != nil {
			return nil, err
		}
		c.files = append(c.files, path)
		c.records = append(c.records, recs...)
	}
	return c, nil
}
