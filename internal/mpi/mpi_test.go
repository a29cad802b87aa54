package mpi

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// sumCombine interprets payloads as little-endian uint64 and adds them.
func sumCombine(a, b []byte) ([]byte, error) {
	va := binary.LittleEndian.Uint64(a)
	vb := binary.LittleEndian.Uint64(b)
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, va+vb)
	return out, nil
}

func u64(v uint64) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, v)
	return out
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("size 0 should error")
	}
	if _, err := NewWorld(-3); err == nil {
		t.Error("negative size should error")
	}
	w, err := NewWorld(4)
	if err != nil || w.Size() != 4 {
		t.Errorf("NewWorld(4) = %v, %v", w, err)
	}
}

func TestSendRecvBasic(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("hello"))
		}
		data, src, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(data) != "hello" || src != 0 {
			return fmt.Errorf("got %q from %d", data, src)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMatching(t *testing.T) {
	// out-of-order tags must be matched correctly via the pending queue
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("first"))
			c.Send(1, 2, []byte("second"))
			return nil
		}
		// receive tag 2 first, then tag 1
		d2, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		d1, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(d1) != "first" || string(d2) != "second" {
			return fmt.Errorf("mismatched: %q %q", d1, d2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySource(t *testing.T) {
	w, _ := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, 5, u64(uint64(c.Rank())))
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			data, src, err := c.Recv(AnySource, 5)
			if err != nil {
				return err
			}
			if binary.LittleEndian.Uint64(data) != uint64(src) {
				return fmt.Errorf("payload/src mismatch")
			}
			seen[src] = true
		}
		if len(seen) != 3 {
			return fmt.Errorf("saw %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendErrors(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(5, 0, nil); err == nil {
				return fmt.Errorf("send to invalid rank should fail")
			}
			if err := c.Send(0, 0, nil); err == nil {
				return fmt.Errorf("send to self should fail")
			}
			if _, _, err := c.Recv(9, 0); err == nil {
				return fmt.Errorf("recv from invalid rank should fail")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesErrorsAndPanics(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("boom")) {
		t.Errorf("err = %v", err)
	}
	w2, _ := NewWorld(2)
	err = w2.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("kaboom")) {
		t.Errorf("panic not captured: %v", err)
	}
}

// TestRunContextReleasesBlockedRanks: a cancelled context aborts the job,
// so ranks blocked in Recv on messages no rank will send return, and the
// job reports the cancellation, not the abort.
func TestRunContextReleasesBlockedRanks(t *testing.T) {
	w, _ := NewWorld(4)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	err := w.RunContext(ctx, func(c *Comm) error {
		if c.Rank() == 0 {
			return nil
		}
		_, _, err := c.Recv(0, 7)
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	w2, _ := NewWorld(2)
	if err := w2.RunContext(ctx, func(*Comm) error { return nil }); err != nil {
		t.Errorf("a job no rank failed reported %v", err)
	}
}

func TestBarrier(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 16, 33} {
		w, _ := NewWorld(p)
		var phase atomic.Int32
		err := w.Run(func(c *Comm) error {
			phase.Add(1)
			if err := c.Barrier(); err != nil {
				return err
			}
			// after the barrier, every rank must have entered
			if got := phase.Load(); got != int32(p) {
				return fmt.Errorf("rank %d: phase = %d, want %d", c.Rank(), got, p)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestBcast(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 17} {
		for root := 0; root < p; root += max(1, p/3) {
			w, _ := NewWorld(p)
			err := w.Run(func(c *Comm) error {
				var data []byte
				if c.Rank() == root {
					data = []byte("payload")
				}
				got, err := c.Bcast(root, data)
				if err != nil {
					return err
				}
				if string(got) != "payload" {
					return fmt.Errorf("rank %d got %q", c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 16, 31} {
		w, _ := NewWorld(p)
		want := uint64(p * (p - 1) / 2)
		err := w.Run(func(c *Comm) error {
			res, err := c.Reduce(0, u64(uint64(c.Rank())), sumCombine)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				if got := binary.LittleEndian.Uint64(res); got != want {
					return fmt.Errorf("sum = %d, want %d", got, want)
				}
			} else if res != nil {
				return fmt.Errorf("non-root got result")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestReduceNonZeroRoot(t *testing.T) {
	p := 9
	root := 4
	w, _ := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		res, err := c.Reduce(root, u64(1), sumCombine)
		if err != nil {
			return err
		}
		if c.Rank() == root && binary.LittleEndian.Uint64(res) != uint64(p) {
			return fmt.Errorf("sum = %d", binary.LittleEndian.Uint64(res))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceFaninVariants(t *testing.T) {
	for _, fanin := range []int{2, 3, 4, 8, 16} {
		for _, p := range []int{1, 2, 5, 16, 27} {
			w, _ := NewWorld(p)
			err := w.Run(func(c *Comm) error {
				res, err := c.ReduceFanin(0, u64(uint64(c.Rank()+1)), sumCombine, fanin)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					want := uint64(p * (p + 1) / 2)
					if got := binary.LittleEndian.Uint64(res); got != want {
						return fmt.Errorf("sum = %d, want %d", got, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("fanin=%d p=%d: %v", fanin, p, err)
			}
		}
	}
	// invalid fanin
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		_, err := c.ReduceFanin(0, u64(1), sumCombine, 1)
		if err == nil {
			return fmt.Errorf("fanin 1 should error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReduceFold: every rank folds its children into a counter it owns.
// Each rank but the root contributes exactly once, after its last absorb;
// the root is never asked to; the root's counter ends up as the sum; and an
// absorb error stops the rank.
func TestReduceFold(t *testing.T) {
	for _, fanin := range []int{2, 3, 8} {
		for _, p := range []int{1, 2, 5, 16, 27} {
			for _, root := range []int{0, p - 1} {
				w, _ := NewWorld(p)
				err := w.Run(func(c *Comm) error {
					sum := uint64(c.Rank() + 1)
					contributed, absorbedAfter := 0, false
					absorb := func(b []byte) error {
						absorbedAfter = contributed > 0
						sum += binary.LittleEndian.Uint64(b)
						return nil
					}
					err := c.ReduceFold(root, fanin, absorb, func() []byte {
						contributed++
						return u64(sum)
					})
					if err != nil {
						return err
					}
					if absorbedAfter {
						return fmt.Errorf("rank %d absorbed after contributing", c.Rank())
					}
					if c.Rank() != root {
						if contributed != 1 {
							return fmt.Errorf("rank %d contributed %d times", c.Rank(), contributed)
						}
						return nil
					}
					if contributed != 0 {
						return fmt.Errorf("the root was asked for a contribution")
					}
					if want := uint64(p * (p + 1) / 2); sum != want {
						return fmt.Errorf("sum = %d, want %d", sum, want)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("fanin=%d p=%d root=%d: %v", fanin, p, root, err)
				}
			}
		}
	}
	w, _ := NewWorld(4)
	boom := fmt.Errorf("bad payload")
	err := w.Run(func(c *Comm) error {
		return c.ReduceFold(0, 2, func([]byte) error { return boom }, func() []byte { return nil })
	})
	if !errors.Is(err, boom) {
		t.Errorf("absorb error: got %v, want %v", err, boom)
	}
}

func TestAllreduce(t *testing.T) {
	p := 12
	w, _ := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		res, err := c.Allreduce(u64(2), sumCombine)
		if err != nil {
			return err
		}
		if got := binary.LittleEndian.Uint64(res); got != uint64(2*p) {
			return fmt.Errorf("rank %d: allreduce = %d, want %d", c.Rank(), got, 2*p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	p := 7
	w, _ := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		out, err := c.Gather(2, []byte{byte(c.Rank() * 3)})
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if out != nil {
				return fmt.Errorf("non-root got gather output")
			}
			return nil
		}
		for r, d := range out {
			if len(d) != 1 || d[0] != byte(r*3) {
				return fmt.Errorf("slot %d = %v", r, d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveInvalidRoot(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if _, err := c.Bcast(5, nil); err == nil {
			return fmt.Errorf("bcast invalid root should fail")
		}
		if _, err := c.Reduce(-1, nil, sumCombine); err == nil {
			return fmt.Errorf("reduce invalid root should fail")
		}
		if _, err := c.Gather(2, nil); err == nil {
			return fmt.Errorf("gather invalid root should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	w, _ := NewWorld(2, WithCostModel(CostModel{Latency: 1000, PerByte: 1, Overhead: 100}))
	var clock0, clock1 float64
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Advance(500)
			if err := c.Send(1, 0, make([]byte, 100)); err != nil {
				return err
			}
			clock0 = c.Clock()
			return nil
		}
		_, _, err := c.Recv(0, 0)
		clock1 = c.Clock()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// sender: 500 compute + 100 overhead
	if clock0 != 600 {
		t.Errorf("sender clock = %v, want 600", clock0)
	}
	// receiver: max(0, 600+1000+100*1) + 100 = 1800
	if clock1 != 1800 {
		t.Errorf("receiver clock = %v, want 1800", clock1)
	}
}

func TestAdvanceIgnoresNegative(t *testing.T) {
	w, _ := NewWorld(1)
	w.Run(func(c *Comm) error {
		c.Advance(-50)
		if c.Clock() != 0 {
			t.Errorf("clock = %v", c.Clock())
		}
		return nil
	})
}

// TestReductionTimeScalesLogarithmically verifies the virtual-clock shape
// that Figure 4 depends on: tree reduction time grows ~log2(P).
func TestReductionTimeScalesLogarithmically(t *testing.T) {
	depthTime := func(p int) float64 {
		w, _ := NewWorld(p)
		var rootClock float64
		err := w.Run(func(c *Comm) error {
			_, err := c.Reduce(0, u64(1), sumCombine)
			if c.Rank() == 0 {
				rootClock = c.Clock()
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rootClock
	}
	t4, t16, t256 := depthTime(4), depthTime(16), depthTime(256)
	if !(t4 < t16 && t16 < t256) {
		t.Fatalf("times not increasing: %v %v %v", t4, t16, t256)
	}
	// doubling log2(P) from 4 (2 levels) to 16 (4 levels) should roughly
	// double the time; 256 (8 levels) roughly 4x. Allow generous slack.
	r1 := t16 / t4
	r2 := t256 / t4
	if r1 < 1.5 || r1 > 3 || r2 < 2.5 || r2 > 6 {
		t.Errorf("scaling ratios off: t16/t4=%.2f (want ~2), t256/t4=%.2f (want ~4)", r1, r2)
	}
}

// TestQuickReduceMatchesSerial: tree reduction over any world size and
// fan-in must equal the serial sum.
func TestQuickReduceMatchesSerial(t *testing.T) {
	f := func(sizeSel, faninSel uint8, values []uint8) bool {
		p := int(sizeSel%24) + 1
		fanin := int(faninSel%7) + 2
		vals := make([]uint64, p)
		var want uint64
		for i := range vals {
			if i < len(values) {
				vals[i] = uint64(values[i])
			}
			want += vals[i]
		}
		w, _ := NewWorld(p)
		var got uint64
		err := w.Run(func(c *Comm) error {
			res, err := c.ReduceFanin(0, u64(vals[c.Rank()]), sumCombine, fanin)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				got = binary.LittleEndian.Uint64(res)
			}
			return nil
		})
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDefaultCostModelSane(t *testing.T) {
	m := DefaultCostModel()
	if m.Latency <= 0 || m.PerByte <= 0 || m.Overhead <= 0 {
		t.Errorf("cost model = %+v", m)
	}
	if math.IsNaN(m.Latency) {
		t.Error("NaN latency")
	}
}
