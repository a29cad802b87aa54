package pquery

import (
	"time"

	"caligo/internal/attr"
	"caligo/internal/core"
	"caligo/internal/mpi"
	"caligo/internal/obs/history"
	"caligo/internal/telemetry"
)

// telemetryEpoch reduces each rank's query stats — one history-style
// observation window covering the rank's local phase — into the
// cluster-wide telemetry view. The reduction runs over the dedicated
// telemetry tag space (never colliding with the data reduction) and uses
// the same core.DB merge kernel; the root publishes the merged view for
// /debug/cluster, where rank count and the slowest rank's local time
// surface the query's cross-rank skew.
func telemetryEpoch(c *mpi.Comm, fanin int, processed uint64, localWall time.Duration) error {
	if fanin < 2 {
		fanin = defaultFanin
	}
	reg := attr.NewRegistry()
	schema, err := history.NewSchema(reg)
	if err != nil {
		return err
	}
	now := time.Now()
	durNS := localWall.Nanoseconds()
	startNS := now.Add(-localWall).UnixNano()
	// one-shot window: metrics sorted by name, as AppendWindow expects
	metrics := []telemetry.Metric{
		{Name: "caligo.pquery.local.ns", Kind: telemetry.KindGauge, Gauge: durNS},
		{Name: "caligo.pquery.records", Kind: telemetry.KindCounter, Counter: processed},
	}
	recs := schema.AppendWindow(nil, c.Rank(), startNS, durNS, nil, metrics)
	db, err := core.NewDB(history.ClusterScheme(), reg)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		db.Update(rec)
	}
	// every rank folds its children into its own window database; the
	// root's then holds the cluster-wide epoch
	err = c.ReduceFoldTelemetry(0, fanin, db.MergeEncodedState, db.EncodeState)
	if err != nil || c.Rank() != 0 {
		return err
	}
	view, err := history.BuildClusterView(db, db, 1, time.Now().UnixNano())
	if err != nil {
		return err
	}
	history.PublishCluster(view)
	return nil
}
