// Loadbalance demonstrates the paper's Section VI-D study: including
// mpi.rank in the aggregation key turns the same instrumentation into a
// load-balance analysis. The example runs the CleverLeaf AMR proxy on
// eight emulated MPI ranks, aggregates per (kernel, mpi.function,
// mpi.rank) on-line, and reports the min/mean/max time across ranks for
// computation and communication.
package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"

	"caligo/caliper"
	"caligo/calql"
	"caligo/internal/apps/cleverleaf"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadbalance:", err)
		os.Exit(1)
	}
}

func run() error {
	const ranks = 8
	app := cleverleaf.Config{
		Ranks: ranks, Timesteps: 40, Levels: 3, WorkScale: 1, VirtualTime: true,
	}

	// One channel per emulated process — the paper's scheme from
	// Section VI-D, applied on-line.
	channels := make([]*caliper.Channel, ranks)
	for r := range channels {
		ch, err := caliper.NewChannel(caliper.Config{
			"services":      "event,timer,aggregate",
			"timer.source":  "virtual",
			"aggregate.key": "kernel,mpi.function,mpi.rank",
			"aggregate.ops": "sum(time.duration)",
		})
		if err != nil {
			return err
		}
		channels[r] = ch
	}
	err := cleverleaf.Run(app, func(rank int) *caliper.Thread {
		return channels[rank].Thread()
	})
	if err != nil {
		return err
	}

	// Combine the per-process profiles (the cross-process aggregation
	// step) through the .cali stream format.
	var stream bytes.Buffer
	for _, ch := range channels {
		w := calformat.NewWriter(&stream, ch.Registry(), contexttree.New())
		if err := ch.FlushEmit(w.WriteFlat); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp("", "loadbalance-*.cali")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(stream.Bytes()); err != nil {
		return err
	}
	tmp.Close()

	rs, err := calql.Run(context.Background(),
		"AGGREGATE sum(sum#time.duration) GROUP BY kernel, mpi.function, mpi.rank",
		[]string{tmp.Name()}, calql.Options{})
	if err != nil {
		return err
	}

	// Fold the rows into per-rank computation / MPI / per-kernel series.
	comp := make([]float64, ranks)
	mpiT := make([]float64, ranks)
	kernels := map[string][]float64{}
	for _, row := range rs.Rows {
		rank := 0
		if v, ok := row.GetByName("mpi.rank"); ok {
			rank = int(v.AsInt())
		}
		if rank < 0 || rank >= ranks {
			continue
		}
		t := 0.0
		if v, ok := row.GetByName("sum#sum#time.duration"); ok {
			t = v.AsFloat() / 1e6 // ms
		}
		if fn, ok := row.GetByName("mpi.function"); ok && fn.String() != "" {
			mpiT[rank] += t
			continue
		}
		comp[rank] += t
		if k, ok := row.GetByName("kernel"); ok && k.String() != "" {
			if kernels[k.String()] == nil {
				kernels[k.String()] = make([]float64, ranks)
			}
			kernels[k.String()][rank] += t
		}
	}

	report := func(name string, series []float64) {
		lo, hi, sum := math.Inf(1), 0.0, 0.0
		for _, v := range series {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			sum += v
		}
		imb := 0.0
		if hi > 0 {
			imb = (hi - lo) / hi * 100
		}
		fmt.Printf("%-20s min %8.2f ms   mean %8.2f ms   max %8.2f ms   imbalance %5.1f%%\n",
			name, lo, sum/float64(len(series)), hi, imb)
	}
	fmt.Printf("load balance across %d ranks (40 timesteps, triple-point AMR proxy):\n\n", ranks)
	report("total computation", comp)
	report("total MPI", mpiT)
	for _, k := range []string{"calc-dt", "advec-mom"} {
		if s, ok := kernels[k]; ok {
			report("kernel "+k, s)
		}
	}
	fmt.Println("\nadvec-mom is balanced while calc-dt carries imbalance — the")
	fmt.Println("signature the paper reads off Figure 7.")
	return nil
}
