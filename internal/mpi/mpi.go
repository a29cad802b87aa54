// Package mpi emulates an MPI-style message-passing runtime inside one
// process: ranks run as goroutines and exchange byte-slice messages with
// tag matching; collectives (barrier, broadcast, reduce, allreduce,
// gather) are built on point-to-point messaging with the same binomial
// tree algorithms a real MPI implementation uses.
//
// The paper's cross-process aggregation (Section IV-C) runs on MVAPICH2 on
// a 2634-node cluster; this package substitutes an in-process emulation
// that executes the identical logarithmic reduction trees. A LogGP-style
// virtual clock models per-message latency, per-byte cost, and CPU
// overhead, so scalability experiments show the communication scaling
// shape (log₂ P tree depth) without the cluster.
package mpi

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sync"

	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

// Self-instrumentation (see docs/OBSERVABILITY.md). All counters are
// no-ops (one atomic load) unless telemetry is enabled.
var (
	telMessages = telemetry.NewCounter("caligo.mpi.messages")
	telMsgBytes = telemetry.NewCounter("caligo.mpi.bytes")
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// CostModel parameterizes the virtual clock, in nanoseconds, loosely
// following the LogGP model.
type CostModel struct {
	// Latency is the end-to-end message latency (L).
	Latency float64
	// PerByte is the transfer time per message byte (G).
	PerByte float64
	// Overhead is the CPU time charged to sender and receiver per
	// message (o).
	Overhead float64
}

// DefaultCostModel approximates a modern HPC interconnect: ~1.5 µs
// latency, ~10 GB/s effective per-flow bandwidth, 0.5 µs CPU overhead.
func DefaultCostModel() CostModel {
	return CostModel{Latency: 1500, PerByte: 0.1, Overhead: 500}
}

// message is one in-flight point-to-point message.
type message struct {
	src     int
	tag     int
	data    []byte
	arrival float64 // virtual arrival time at the receiver
}

// World is one emulated MPI job: a fixed set of ranks with mailboxes.
type World struct {
	size  int
	cost  CostModel
	inbox []chan message

	// done is closed when any rank fails, releasing peers blocked in
	// Send/Recv (the emulated equivalent of MPI_Abort).
	done      chan struct{}
	abortOnce sync.Once
}

// Option configures a World.
type Option func(*World)

// WithCostModel overrides the virtual-clock cost model.
func WithCostModel(m CostModel) Option {
	return func(w *World) { w.cost = m }
}

// NewWorld creates an emulated job with the given number of ranks.
func NewWorld(size int, opts ...Option) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", size)
	}
	w := &World{size: size, cost: DefaultCostModel(), done: make(chan struct{})}
	for _, o := range opts {
		o(w)
	}
	w.inbox = make([]chan message, size)
	for i := range w.inbox {
		// generous buffering keeps senders from blocking in the common
		// case; correctness does not depend on capacity
		w.inbox[i] = make(chan message, 64)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// abort releases all ranks blocked in communication calls; it is invoked
// when any rank fails (the emulated equivalent of MPI_Abort).
func (w *World) abort() {
	w.abortOnce.Do(func() { close(w.done) })
}

// Run executes fn once per rank, each in its own goroutine, and waits for
// all to finish. It returns the first non-nil error (with its rank). A
// failing rank aborts the whole job, releasing peers blocked in
// communication.
func (w *World) Run(fn func(c *Comm) error) error {
	return w.RunContext(context.Background(), fn)
}

// RunContext is Run under ctx: once ctx is done the job aborts, releasing
// the ranks blocked in Send/Recv, and a failed job reports ctx.Err().
func (w *World) RunContext(ctx context.Context, fn func(c *Comm) error) error {
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, w.abort)()
	}
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				}
				if errs[rank] != nil {
					w.abort()
				}
			}()
			errs[rank] = fn(w.newComm(rank))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil && !isAbortErr(err) {
			return fmt.Errorf("mpi: rank %d: %w", r, err)
		}
	}
	// only abort-induced errors remain (if any): report the cancellation
	// that caused them, or the first
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("mpi: rank %d: %w", r, cmp.Or(ctx.Err(), err))
		}
	}
	return nil
}

// errAborted is returned from communication calls when the job aborted.
var errAborted = fmt.Errorf("mpi: job aborted by a failing rank")

func isAbortErr(err error) bool { return err == errAborted }

// Comm is one rank's communication endpoint. A Comm is confined to the
// goroutine running that rank.
type Comm struct {
	world   *World
	rank    int
	clock   float64   // virtual time, ns
	pending []message // received but not yet matched
}

func (w *World) newComm(rank int) *Comm {
	return &Comm{world: w, rank: rank}
}

// Rank returns this endpoint's rank id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the job size.
func (c *Comm) Size() int { return c.world.size }

// Clock returns the rank's current virtual time in nanoseconds.
func (c *Comm) Clock() float64 { return c.clock }

// Advance adds local computation time to the virtual clock.
func (c *Comm) Advance(ns float64) {
	if ns > 0 {
		c.clock += ns
	}
}

// Send transmits data to rank dst with the given tag. The data slice is
// not copied; the sender must not modify it afterwards.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= c.world.size {
		return fmt.Errorf("mpi: send: invalid destination rank %d (size %d)", dst, c.world.size)
	}
	if dst == c.rank {
		return fmt.Errorf("mpi: send: rank %d sending to itself", c.rank)
	}
	telMessages.Inc()
	telMsgBytes.Add(uint64(len(data)))
	sp := trace.BeginRank("mpi.send", c.rank)
	sp.ArgInt("dst", int64(dst))
	sp.ArgInt("tag", int64(tag))
	sp.ArgInt("bytes", int64(len(data)))
	m := c.world.cost
	c.clock += m.Overhead
	arrival := c.clock + m.Latency + float64(len(data))*m.PerByte
	select {
	case c.world.inbox[dst] <- message{src: c.rank, tag: tag, data: data, arrival: arrival}:
		sp.End()
		return nil
	case <-c.world.done:
		sp.End()
		return errAborted
	}
}

// Recv blocks until a message with matching source and tag arrives and
// returns its payload and source rank. Pass AnySource to match any sender.
// The virtual clock advances to max(local, arrival) + overhead.
func (c *Comm) Recv(src, tag int) ([]byte, int, error) {
	if src != AnySource && (src < 0 || src >= c.world.size) {
		return nil, 0, fmt.Errorf("mpi: recv: invalid source rank %d", src)
	}
	sp := trace.BeginRank("mpi.recv", c.rank)
	sp.ArgInt("src", int64(src))
	sp.ArgInt("tag", int64(tag))
	matches := func(m message) bool {
		return (src == AnySource || m.src == src) && m.tag == tag
	}
	for i, m := range c.pending {
		if matches(m) {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			c.arrive(m)
			sp.ArgInt("bytes", int64(len(m.data)))
			sp.End()
			return m.data, m.src, nil
		}
	}
	for {
		select {
		case m := <-c.world.inbox[c.rank]:
			if matches(m) {
				c.arrive(m)
				sp.ArgInt("bytes", int64(len(m.data)))
				sp.End()
				return m.data, m.src, nil
			}
			c.pending = append(c.pending, m)
		case <-c.world.done:
			sp.End()
			return nil, 0, errAborted
		}
	}
}

// arrive advances the virtual clock for a consumed message.
func (c *Comm) arrive(m message) {
	c.clock = math.Max(c.clock, m.arrival) + c.world.cost.Overhead
}

// Collective message tags live in reserved negative spaces to avoid
// clashing with user tags and with each other (barrier and reduce both
// offset their base tag by a round index, so the bases are spaced far
// apart).
const (
	tagBarrier = -1_000_000
	tagBcast   = -2_000_000
	tagReduce  = -3_000_000
	tagGather  = -4_000_000
)

// Barrier synchronizes all ranks using the dissemination algorithm
// (⌈log₂ P⌉ rounds).
func (c *Comm) Barrier() error {
	p := c.world.size
	if p == 1 {
		return nil
	}
	for k := 1; k < p; k *= 2 {
		dst := (c.rank + k) % p
		srcRank := (c.rank - k + p) % p
		if err := c.Send(dst, tagBarrier-k, nil); err != nil {
			return err
		}
		if _, _, err := c.Recv(srcRank, tagBarrier-k); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes root's data to all ranks along a binomial tree and
// returns each rank's copy.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	p := c.world.size
	if root < 0 || root >= p {
		return nil, fmt.Errorf("mpi: bcast: invalid root %d", root)
	}
	if p == 1 {
		return data, nil
	}
	vrank := (c.rank - root + p) % p // root becomes virtual rank 0
	// receive from parent (unless root)
	if vrank != 0 {
		mask := 1
		for mask < p {
			if vrank&mask != 0 {
				parent := ((vrank - mask) + root) % p
				got, _, err := c.Recv(parent, tagBcast)
				if err != nil {
					return nil, err
				}
				data = got
				break
			}
			mask *= 2
		}
	}
	// forward to children
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			break
		}
		mask *= 2
	}
	for m := mask / 2; m >= 1; m /= 2 {
		childV := vrank | m
		if childV < p {
			child := (childV + root) % p
			if err := c.Send(child, tagBcast, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// Combine merges two payloads into one (a reduction operator on opaque
// byte slices). It must be associative and commutative for tree reduction
// to be well-defined.
type Combine func(a, b []byte) ([]byte, error)

// Reduce folds every rank's contribution to the root along a binomial
// tree ("leaf processes send the local aggregation results to their
// parent, where the partial results are aggregated again" — Section IV-C).
// On the root it returns the combined result; on other ranks nil.
func (c *Comm) Reduce(root int, data []byte, combine Combine) ([]byte, error) {
	return c.ReduceFanin(root, data, combine, 2)
}

// ReduceFanin is Reduce over a tree with configurable fan-in k ≥ 2
// (fan-in 2 is the binomial tree). Exposed for the ablation study of the
// reduction-tree arity.
func (c *Comm) ReduceFanin(root int, data []byte, combine Combine, fanin int) ([]byte, error) {
	acc := data
	err := c.ReduceFold(root, fanin, func(got []byte) (err error) {
		acc, err = combine(acc, got)
		return err
	}, func() []byte { return acc })
	if err != nil || c.rank != root {
		return nil, err
	}
	return acc, nil
}

// ReduceFold is the tree reduction over state the ranks already hold,
// rather than over opaque payloads: in tree order a rank absorbs each of
// its children's messages into its own state, then — unless it is the
// root — sends its contribution to its parent. contribution is called
// once, after the last absorb, so a rank serializes what it holds once
// however many children it has; the root, whose state is the result, is
// never asked for one. The tree is the fan-in-k generalization of the
// binomial tree (fanin ≥ 2).
func (c *Comm) ReduceFold(root, fanin int, absorb func([]byte) error, contribution func() []byte) error {
	p := c.world.size
	if root < 0 || root >= p {
		return fmt.Errorf("mpi: reduce: invalid root %d", root)
	}
	if fanin < 2 {
		return fmt.Errorf("mpi: reduce: fan-in must be >= 2, got %d", fanin)
	}
	vrank := (c.rank - root + p) % p
	// k-ary tree generalization of the binomial exchange: in round r
	// (digit position in base `fanin`), ranks whose digit is zero receive
	// from up to fanin-1 children; others send to their parent and stop.
	for stride := 1; stride < p; stride *= fanin {
		if digit := (vrank / stride) % fanin; digit != 0 {
			parent := (vrank - digit*stride + root) % p
			return c.Send(parent, tagReduce-stride, contribution())
		}
		for d := 1; d < fanin; d++ {
			childV := vrank + d*stride
			if childV >= p {
				break
			}
			got, _, err := c.Recv((childV+root)%p, tagReduce-stride)
			if err != nil {
				return err
			}
			if err := absorb(got); err != nil {
				return err
			}
		}
	}
	return nil
}

// Allreduce folds every rank's contribution and distributes the result to
// all ranks (reduce-to-zero followed by broadcast).
func (c *Comm) Allreduce(data []byte, combine Combine) ([]byte, error) {
	res, err := c.Reduce(0, data, combine)
	if err != nil {
		return nil, err
	}
	return c.Bcast(0, res)
}

// Gather collects every rank's payload at the root, indexed by rank. On
// non-root ranks it returns nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	p := c.world.size
	if root < 0 || root >= p {
		return nil, fmt.Errorf("mpi: gather: invalid root %d", root)
	}
	if c.rank != root {
		return nil, c.Send(root, tagGather, data)
	}
	out := make([][]byte, p)
	out[c.rank] = data
	for i := 0; i < p-1; i++ {
		got, src, err := c.Recv(AnySource, tagGather)
		if err != nil {
			return nil, err
		}
		if out[src] != nil && src != c.rank {
			return nil, fmt.Errorf("mpi: gather: duplicate contribution from rank %d", src)
		}
		out[src] = got
	}
	return out, nil
}
