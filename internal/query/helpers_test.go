package query

import (
	"io"

	"caligo/internal/attr"
	"caligo/internal/calql"
	"caligo/internal/snapshot"
)

// MustNew is New panicking on error, for static pipelines.
func MustNew(q *calql.Query, reg *attr.Registry) *Engine {
	e, err := New(q, reg)
	if err != nil {
		panic(err)
	}
	return e
}

// ProcessAll feeds a record slice through the pipeline.
func (e *Engine) ProcessAll(recs []snapshot.FlatRecord) error {
	for _, r := range recs {
		if err := e.Process(r); err != nil {
			return err
		}
	}
	return nil
}

// Execute runs the full pipeline and writes formatted output.
func (e *Engine) Execute(w io.Writer) error {
	rows, err := e.Results()
	if err != nil {
		return err
	}
	return e.Write(w, rows)
}
