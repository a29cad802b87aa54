package caliper

import (
	"io"

	"caligo/internal/trace"
)

// Span tracing: the runtime's second observability surface next to the
// telemetry counters. Span collection is kill-switched and off by
// default; the cali tools enable it via their -trace flags, and tests or
// host applications can toggle it with SetTracing. See
// docs/OBSERVABILITY.md for the span catalogue.

// SetTracing turns span collection on or off and returns the previous
// state. Collection is off by default; when off, instrumented call sites
// cost one atomic load and zero allocations.
func SetTracing(on bool) (previous bool) { return trace.SetEnabled(on) }

// WriteTrace writes all buffered spans as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each
// emulated MPI rank appears as its own process lane.
func WriteTrace(w io.Writer) error { return trace.WriteTrace(w) }

// WriteTraceReport writes a deterministic plain-text summary of the
// buffered spans (per span name: count, total/min/max duration).
func WriteTraceReport(w io.Writer) error { return trace.WriteReport(w) }
