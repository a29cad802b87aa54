package mpiwrap

import (
	"encoding/binary"
	"fmt"
	"testing"

	"caligo/caliper"
	"caligo/internal/mpi"
)

func sumCombine(a, b []byte) ([]byte, error) {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out,
		binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
	return out, nil
}

func u64(v uint64) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, v)
	return out
}

// runInstrumented executes fn on a world with per-rank instrumented comms
// and returns the per-rank channels.
func runInstrumented(t *testing.T, ranks int, fn func(w *Comm) error) []*caliper.Channel {
	t.Helper()
	channels := make([]*caliper.Channel, ranks)
	for r := range channels {
		ch, err := caliper.NewChannel(caliper.Config{
			"services":      "event,timer,aggregate",
			"aggregate.key": "mpi.function,mpi.rank",
			"aggregate.ops": "count,sum(time.duration)",
		})
		if err != nil {
			t.Fatal(err)
		}
		channels[r] = ch
	}
	world, err := mpi.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	err = world.Run(func(c *mpi.Comm) error {
		w, err := Wrap(c, channels[c.Rank()].Thread())
		if err != nil {
			return err
		}
		return fn(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	return channels
}

// countsFor flushes a channel and returns MPI function call counts.
func countsFor(t *testing.T, ch *caliper.Channel) map[string]int64 {
	t.Helper()
	rows, err := ch.Flush()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, r := range rows {
		fn, ok := r.GetByName("mpi.function")
		if !ok {
			continue
		}
		c, _ := r.GetByName("aggregate.count")
		counts[fn.String()] = c.AsInt()
	}
	return counts
}

func TestAllCallsAnnotated(t *testing.T) {
	const ranks = 4
	channels := runInstrumented(t, ranks, func(w *Comm) error {
		if w.Rank() == 0 {
			for dst := 1; dst < ranks; dst++ {
				if err := w.Send(dst, 1, u64(7)); err != nil {
					return err
				}
			}
		} else {
			if _, _, err := w.Recv(0, 1); err != nil {
				return err
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		if _, err := w.Allreduce(u64(1), sumCombine); err != nil {
			return err
		}
		return nil
	})
	counts := countsFor(t, channels[0]) // rank 0's profile
	// each call annotated exactly once per rank: end-event snapshots
	// carry the mpi.function, begin-event ones the surrounding context
	for _, fn := range []string{"MPI_Send", "MPI_Barrier", "MPI_Allreduce"} {
		if counts[fn] == 0 {
			t.Errorf("rank 0: %s missing from profile: %v", fn, counts)
		}
	}
	c1 := countsFor(t, channels[1])
	if c1["MPI_Recv"] == 0 {
		t.Errorf("rank 1: MPI_Recv missing: %v", c1)
	}
}

func TestRankAttributeSet(t *testing.T) {
	const ranks = 3
	channels := runInstrumented(t, ranks, func(w *Comm) error {
		return w.Barrier()
	})
	for r, ch := range channels {
		rows, err := ch.Flush()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if v, ok := row.GetByName("mpi.rank"); ok && v.AsInt() != int64(r) {
				t.Errorf("rank %d profile has mpi.rank=%v", r, v)
			}
		}
	}
}

func TestNilThreadNoInstrumentation(t *testing.T) {
	world, _ := mpi.NewWorld(2)
	err := world.Run(func(c *mpi.Comm) error {
		w, err := Wrap(c, nil)
		if err != nil {
			return err
		}
		if w.Size() != 2 {
			return fmt.Errorf("size = %d", w.Size())
		}
		if w.Inner() != c {
			return fmt.Errorf("inner mismatch")
		}
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrorsPropagate(t *testing.T) {
	world, _ := mpi.NewWorld(2)
	err := world.Run(func(c *mpi.Comm) error {
		ch, err := caliper.NewChannel(caliper.Config{"services": ""})
		if err != nil {
			return err
		}
		w, err := Wrap(c, ch.Thread())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			// invalid destination must surface through the wrapper
			if err := w.Send(99, 0, nil); err == nil {
				return fmt.Errorf("expected send error")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeSynchronized(t *testing.T) {
	const ranks = 2
	channels := make([]*caliper.Channel, ranks)
	threads := make([]*caliper.Thread, ranks)
	for r := range channels {
		ch, err := caliper.NewChannel(caliper.Config{
			"services":      "event,timer,aggregate",
			"timer.source":  "virtual",
			"aggregate.key": "mpi.function",
			"aggregate.ops": "sum(time.duration)",
		})
		if err != nil {
			t.Fatal(err)
		}
		channels[r] = ch
	}
	world, _ := mpi.NewWorld(ranks)
	err := world.Run(func(c *mpi.Comm) error {
		th := channels[c.Rank()].Thread()
		threads[c.Rank()] = th
		w, err := Wrap(c, th)
		if err != nil {
			return err
		}
		// rank 1 computes 1ms (virtual) before the barrier; rank 0's
		// barrier wait must be attributed to MPI_Barrier on the virtual
		// clock
		if c.Rank() == 1 {
			c.Advance(1e6)
			th.SetVirtualTime(int64(c.Clock()))
		}
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := channels[0].Flush()
	if err != nil {
		t.Fatal(err)
	}
	var barrierNs int64
	for _, r := range rows {
		if fn, ok := r.GetByName("mpi.function"); ok && fn.String() == "MPI_Barrier" {
			if v, ok := r.GetByName("sum#time.duration"); ok {
				barrierNs = v.AsInt()
			}
		}
	}
	if barrierNs < 900_000 {
		t.Errorf("rank 0 barrier virtual time = %d ns, want >= ~1ms (the skew wait)", barrierNs)
	}
}
