// Package mpiwrap provides the MPI interposition layer: it wraps an
// emulated MPI communicator so that every communication call is annotated
// with the "mpi.function" attribute and the process's "mpi.rank", exactly
// like Caliper's MPI wrapper built on the MPI profiling interface (PMPI).
// The paper's communication-overhead and load-balance studies (Figures 6
// and 7) are driven by these annotations.
package mpiwrap

import (
	"caligo/caliper"
	"caligo/internal/attr"
	"caligo/internal/mpi"
)

// FunctionAttr is the label under which MPI function names are recorded.
const FunctionAttr = "mpi.function"

// RankAttr is the label under which the process rank is recorded.
const RankAttr = "mpi.rank"

// Comm is an instrumented communicator. Its methods mirror the mpi.Comm
// calls the proxy applications make, surrounding each call with mpi.function begin/end annotations. When the
// thread's channel uses a virtual timer, the thread's virtual clock is
// synchronized with the communicator's virtual clock after every call, so
// time spent waiting in communication (as modeled by the MPI cost model)
// is attributed to the MPI function.
type Comm struct {
	inner *mpi.Comm
	th    *caliper.Thread
	sync  bool
}

// Wrap instruments a communicator. It registers the mpi.rank and
// mpi.function attributes on the thread's channel and sets mpi.rank for
// the lifetime of the process. A nil thread disables instrumentation
// (the baseline configuration of the overhead study).
func Wrap(c *mpi.Comm, th *caliper.Thread) (*Comm, error) {
	w := &Comm{inner: c, th: th}
	if th != nil {
		ch := th.Channel()
		w.sync = ch.VirtualTimer()
		if _, err := ch.CreateAttribute(RankAttr, attr.Int, 0); err != nil {
			return nil, err
		}
		if _, err := ch.CreateAttribute(FunctionAttr, attr.String, attr.Nested); err != nil {
			return nil, err
		}
		if err := th.Set(RankAttr, c.Rank()); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Inner returns the wrapped communicator.
func (w *Comm) Inner() *mpi.Comm { return w.inner }

// Rank returns the process rank.
func (w *Comm) Rank() int { return w.inner.Rank() }

// Size returns the job size.
func (w *Comm) Size() int { return w.inner.Size() }

// instrument runs fn between begin/end annotations of the MPI function.
func (w *Comm) instrument(name string, fn func() error) error {
	if w.th == nil {
		return fn()
	}
	if err := w.th.Begin(FunctionAttr, name); err != nil {
		return err
	}
	err := fn()
	if w.sync {
		w.th.SetVirtualTime(int64(w.inner.Clock()))
	}
	if eerr := w.th.End(FunctionAttr); err == nil {
		err = eerr
	}
	return err
}

// Send is an annotated mpi.Comm.Send (recorded as MPI_Send).
func (w *Comm) Send(dst, tag int, data []byte) error {
	return w.instrument("MPI_Send", func() error {
		return w.inner.Send(dst, tag, data)
	})
}

// Recv is an annotated mpi.Comm.Recv (recorded as MPI_Recv).
func (w *Comm) Recv(src, tag int) (data []byte, from int, err error) {
	err = w.instrument("MPI_Recv", func() error {
		var ierr error
		data, from, ierr = w.inner.Recv(src, tag)
		return ierr
	})
	return data, from, err
}

// Barrier is an annotated mpi.Comm.Barrier (recorded as MPI_Barrier).
func (w *Comm) Barrier() error {
	return w.instrument("MPI_Barrier", func() error {
		return w.inner.Barrier()
	})
}

// Allreduce is an annotated mpi.Comm.Allreduce (recorded as MPI_Allreduce).
func (w *Comm) Allreduce(data []byte, combine mpi.Combine) (out []byte, err error) {
	err = w.instrument("MPI_Allreduce", func() error {
		var ierr error
		out, ierr = w.inner.Allreduce(data, combine)
		return ierr
	})
	return out, err
}
