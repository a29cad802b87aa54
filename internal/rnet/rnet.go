// Package rnet implements an on-line cross-process data reduction network
// in the style of MRNet/CBTF, which the paper cites as the way on-line
// solutions aggregate across processes (Section II-B): instead of writing
// per-process files and reducing post-mortem, every process streams its
// aggregation-database deltas through a logarithmic reduction tree at
// periodic synchronization points (epochs), and the root maintains a
// running global aggregation database that can be queried *while the
// application runs* — the basis for the in-situ analyses (dynamic load
// balancing, auto-tuning) the paper mentions in Section II-C.
//
// The network reuses the aggregation core end to end: local updates are
// ordinary core.DB updates, epoch reduction is a tree fold over the
// registry-independent wire format, and the root's view is a core.DB
// ready for CalQL queries.
package rnet

import (
	"fmt"
	"time"

	"caligo/internal/attr"
	"caligo/internal/core"
	"caligo/internal/mpi"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

// Self-instrumentation (see docs/OBSERVABILITY.md). All metrics are
// no-ops (one atomic load) unless telemetry is enabled.
var (
	telEpochs     = telemetry.NewCounter("caligo.rnet.epochs")
	telEpochNS    = telemetry.NewHistogram("caligo.rnet.epoch.ns")
	telDeltaBytes = telemetry.NewCounter("caligo.rnet.delta.bytes")
	// Lag/backpressure gauges for live monitoring. The gauges are
	// process-global while nodes are per-rank, so with many emulated
	// ranks the last writer wins — they read as a representative sample
	// of the network, not a per-rank breakdown (per-rank detail is in
	// the rnet.sync spans).
	gPendingRecords = telemetry.NewGauge("caligo.rnet.pending.records")
	gSyncLagNS      = telemetry.NewGauge("caligo.rnet.sync.lag.ns")
)

// Node is one process's endpoint in the reduction network. All
// application ranks construct a Node over their communicator with equal
// schemes; Push feeds local records and Sync runs one epoch reduction.
// A Node is confined to its rank's goroutine.
type Node struct {
	comm   *mpi.Comm
	scheme *core.Scheme
	fanin  int

	// delta accumulates records since the last epoch.
	delta *core.DB
	// global is the running cumulative database; maintained on the root
	// only (nil elsewhere).
	global *core.DB
	reg    *attr.Registry

	epochs   uint64
	pushed   uint64
	lastSync time.Time
}

// Option configures a Node.
type Option func(*Node)

// WithFanin sets the reduction tree arity (default 2, the paper's
// logarithmic tree).
func WithFanin(fanin int) Option {
	return func(n *Node) { n.fanin = fanin }
}

// New creates a network endpoint for this rank. reg resolves the records
// passed to Push (typically the rank's measurement registry).
func New(comm *mpi.Comm, scheme *core.Scheme, reg *attr.Registry, opts ...Option) (*Node, error) {
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	delta, err := core.NewDB(scheme, reg)
	if err != nil {
		return nil, err
	}
	n := &Node{comm: comm, scheme: scheme, fanin: 2, delta: delta, reg: reg}
	for _, o := range opts {
		o(n)
	}
	if n.fanin < 2 {
		return nil, fmt.Errorf("rnet: fan-in must be >= 2, got %d", n.fanin)
	}
	if comm.Rank() == 0 {
		// the root's cumulative view lives in its own registry so wire
		// decoding stays registry-independent
		rootReg := attr.NewRegistry()
		global, err := core.NewDB(scheme, rootReg)
		if err != nil {
			return nil, err
		}
		n.global = global
	}
	return n, nil
}

// Push feeds one record into the local delta database (a streaming
// reduction; nothing is communicated until Sync).
func (n *Node) Push(rec snapshot.FlatRecord) {
	n.delta.Update(rec)
	n.pushed++
	gPendingRecords.Set(int64(n.delta.Len()))
}

// Pushed returns the number of records pushed locally.
func (n *Node) Pushed() uint64 { return n.pushed }

// Epochs returns the number of completed Sync epochs.
func (n *Node) Epochs() uint64 { return n.epochs }

// Sync runs one epoch: all ranks' current deltas are combined in a
// logarithmic tree reduction and merged into the root's cumulative
// database; local deltas reset. Sync is collective — every rank must call
// it the same number of times. On the root it returns the cumulative
// database (valid until the next Sync mutates it); other ranks get nil.
func (n *Node) Sync() (*core.DB, error) {
	var epochStart time.Time
	if telemetry.Enabled() {
		epochStart = time.Now()
		// epoch lag: how long this node's delta has been accumulating
		// since its previous sync — the "how stale is the root's view"
		// signal for the live monitor
		if !n.lastSync.IsZero() {
			gSyncLagNS.Set(epochStart.Sub(n.lastSync).Nanoseconds())
		}
		n.lastSync = epochStart
	}
	sp := trace.BeginRank("rnet.sync", n.comm.Rank())
	defer sp.End()
	sp.ArgInt("epoch", int64(n.epochs))
	// Every rank folds its children's deltas into its own and encodes the
	// sum once: for its parent or, on the root, for the cumulative database,
	// which lives in another registry and so takes it in wire form too.
	ship := func() []byte {
		payload := n.delta.EncodeState()
		n.delta.Clear()
		gPendingRecords.Set(0)
		telDeltaBytes.Add(uint64(len(payload)))
		sp.ArgInt("bytes", int64(len(payload)))
		return payload
	}
	if err := n.comm.ReduceFold(0, n.fanin, n.delta.MergeEncodedState, ship); err != nil {
		return nil, err
	}
	n.epochs++
	telEpochs.Inc()
	if n.comm.Rank() != 0 {
		if !epochStart.IsZero() {
			telEpochNS.Observe(time.Since(epochStart).Nanoseconds())
		}
		return nil, nil
	}
	if err := n.global.MergeEncodedState(ship()); err != nil {
		return nil, err
	}
	if !epochStart.IsZero() {
		telEpochNS.Observe(time.Since(epochStart).Nanoseconds())
	}
	return n.global, nil
}

// Global returns the root's cumulative database (nil on other ranks).
// It reflects all records included in completed epochs.
func (n *Node) Global() *core.DB { return n.global }

// PendingRecords reports the number of unique aggregation records waiting
// in the local delta (the buffered state the next Sync will ship).
func (n *Node) PendingRecords() int { return n.delta.Len() }
