// Command cali-index builds, inspects, and verifies sidecar block
// indexes (<file>.cali.idx) for .cali datasets. The index stores per-block
// zone maps (numeric min/max, small string distinct sets) that let
// cali-query skip whole files and blocks a WHERE clause cannot match.
//
// Usage:
//
//	cali-index profile.cali [more.cali ...]          build indexes
//	cali-index -block 512 profile.cali               build with 512-record blocks
//	cali-index -inspect -v profile.cali              print index contents
//	cali-index -verify profile.cali                  check freshness + full content hash
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"

	"caligo/internal/calformat"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cali-index:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cali-index", flag.ContinueOnError)
	inspect := fs.Bool("inspect", false, "print existing indexes instead of building")
	verbose := fs.Bool("v", false, "with -inspect: also print per-block zone maps")
	verify := fs.Bool("verify", false, "verify existing indexes (freshness and full content hash)")
	block := fs.Int("block", 0, "records per block (0 = default)")
	distinct := fs.Int("distinct", 0, "max distinct strings tracked per zone (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("no input files")
	}
	if *inspect && *verify {
		return fmt.Errorf("-inspect and -verify are mutually exclusive")
	}
	for _, fn := range files {
		var err error
		switch {
		case *inspect:
			err = inspectFile(w, fn, *verbose)
		case *verify:
			err = verifyFile(w, fn)
		default:
			err = buildFile(w, fn, calformat.IndexOptions{BlockRecords: *block, MaxDistinct: *distinct})
		}
		if err != nil {
			return fmt.Errorf("%s: %w", fn, err)
		}
	}
	return nil
}

func buildFile(w io.Writer, fn string, opt calformat.IndexOptions) error {
	idx, err := calformat.BuildFileIndex(fn, opt)
	if err != nil {
		return err
	}
	if err := calformat.WriteIndexFile(fn, idx); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: indexed %d records in %d blocks (%d attributes) -> %s\n",
		fn, idx.Records, len(idx.Blocks), len(idx.Attrs), calformat.IndexPath(fn))
	return nil
}

func inspectFile(w io.Writer, fn string, verbose bool) error {
	idx, err := calformat.ReadIndexFile(calformat.IndexPath(fn))
	if err != nil {
		return err
	}
	state := "fresh"
	if _, lerr := calformat.LoadIndex(fn); lerr != nil {
		switch {
		case errors.Is(lerr, fs.ErrNotExist):
			state = "data file missing"
		case errors.Is(lerr, calformat.ErrIndexStale):
			state = "STALE (data file changed; queries fall back to full scans)"
		default:
			state = fmt.Sprintf("unusable: %v", lerr)
		}
	}
	fmt.Fprintf(w, "%s:\n", calformat.IndexPath(fn))
	fmt.Fprintf(w, "  version: %d   state: %s\n", idx.Version, state)
	fmt.Fprintf(w, "  file size: %d bytes   records: %d   entries: %d   tree nodes: %d   globals: %d\n",
		idx.FileSize, idx.Records, idx.Entries, idx.TreeNodes, idx.Globals)
	fmt.Fprintf(w, "  blocks: %d (target %d records/block)\n", len(idx.Blocks), idx.BlockTarget)
	fmt.Fprintf(w, "  %-32s %-8s %10s\n", "attribute", "type", "entries")
	for _, a := range idx.Attrs {
		fmt.Fprintf(w, "  %-32s %-8s %10d\n", a.Name, a.Type.String(), a.Entries)
	}
	if !verbose {
		return nil
	}
	for bi := range idx.Blocks {
		b := &idx.Blocks[bi]
		fmt.Fprintf(w, "  block %d: offset=%d len=%d records=%d meta-lines=%d\n",
			bi, b.Offset, b.Length, b.Records, b.MetaLines)
		for _, z := range b.Zones {
			name := idx.Attrs[z.Attr].Name
			switch {
			case z.HasNum:
				fmt.Fprintf(w, "    %-30s count=%d range=[%g, %g]\n", name, z.Count, z.Min, z.Max)
			case z.Overflow:
				fmt.Fprintf(w, "    %-30s count=%d strings=(overflow)\n", name, z.Count)
			case len(z.Strs) > 0:
				fmt.Fprintf(w, "    %-30s count=%d strings=%q\n", name, z.Count, z.Strs)
			default:
				fmt.Fprintf(w, "    %-30s count=%d\n", name, z.Count)
			}
		}
	}
	return nil
}

func verifyFile(w io.Writer, fn string) error {
	idx, err := calformat.VerifyIndex(fn)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: OK (%d records, %d blocks, full hash verified)\n",
		fn, idx.Records, len(idx.Blocks))
	return nil
}
