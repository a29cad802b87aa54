// Command cali-prof turns Go pprof profiles into CalQL-queryable .cali
// calling-context data and answers the common profiling questions
// directly.
//
// Usage:
//
//	cali-prof capture [-type cpu|heap|...] [-seconds N] [-o out.cali] [-folded] (host:port | -self)
//	cali-prof convert [-o out.cali] [-folded] [-sample type] profile.pb.gz
//	cali-prof top     [-metric cpu.samples] [-n 20] file.cali [file2.cali ...]
//	cali-prof tree    [-metric cpu.samples] file.cali [file2.cali ...]
//
// capture pulls a profile from a live debug endpoint (any process serving
// net/http/pprof, e.g. caliper.ServeDebug) — or, with -self, profiles the
// cali-prof process itself — and converts it. convert transforms an
// existing pprof file (from any Go service). top prints a flat/cumulative
// per-function table; tree renders the calling-context tree. -folded
// writes folded stacks ("main;foo;bar 42") for standard flamegraph
// tooling instead of .cali.
//
// Examples:
//
//	cali-prof capture -type cpu -seconds 5 -o cpu.cali localhost:9090
//	cali-prof convert -o svc.cali /tmp/pprof/cpu.pb.gz
//	cali-prof convert -folded cpu.pb.gz | flamegraph.pl > flame.svg
//	cali-prof top -n 15 cpu.cali
//	cali-prof tree -metric heap.inuse.bytes heap.cali
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"caligo/calql"
	"caligo/internal/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cali-prof:", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: cali-prof <command> [flags] ...

commands:
  capture   capture a profile from a live /debug/pprof endpoint (or -self)
  convert   convert a pprof file to .cali (or -folded flame stacks)
  top       per-function flat/cumulative table from .cali profile data
  tree      calling-context tree from .cali profile data

run "cali-prof <command> -h" for command flags
`)
}

func run(args []string) error {
	if len(args) == 0 {
		usage(os.Stderr)
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "capture":
		return runCapture(args[1:])
	case "convert":
		return runConvert(args[1:])
	case "top":
		return runTop(args[1:])
	case "tree":
		return runTree(args[1:])
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
		return nil
	}
	usage(os.Stderr)
	return fmt.Errorf("unknown command %q", args[0])
}

// ---------------------------------------------------------------------------
// capture

func runCapture(args []string) error {
	fs := flag.NewFlagSet("cali-prof capture", flag.ContinueOnError)
	kind := fs.String("type", "cpu", "profile kind: cpu, heap, allocs, goroutine, mutex, block, threadcreate")
	seconds := fs.Int("seconds", 5, "CPU window length in seconds (cpu only)")
	out := fs.String("o", "", "output file (default <type>.cali, or <type>.folded with -folded)")
	folded := fs.Bool("folded", false, "write folded flame stacks instead of .cali")
	self := fs.Bool("self", false, "profile the cali-prof process itself instead of a remote endpoint")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cali-prof capture [flags] (host:port | -self)\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !prof.KnownKind(*kind) {
		return fmt.Errorf("unknown profile type %q", *kind)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	var raw []byte
	var err error
	switch {
	case *self:
		if fs.NArg() != 0 {
			return fmt.Errorf("-self takes no target argument")
		}
		raw, err = prof.CapturePprof(*kind, time.Duration(*seconds)*time.Second)
	case fs.NArg() == 1:
		raw, err = fetchPprof(fs.Arg(0), *kind, *seconds)
	default:
		fs.Usage()
		return fmt.Errorf("need exactly one target host:port (or -self)")
	}
	if err != nil {
		return err
	}
	target := *out
	if target == "" {
		if *folded {
			target = *kind + ".folded"
		} else {
			target = *kind + ".cali"
		}
	}
	return writeConverted(raw, target, *folded, "")
}

// fetchPprof pulls one profile from a net/http/pprof endpoint.
func fetchPprof(target, kind string, seconds int) ([]byte, error) {
	if !strings.Contains(target, "://") {
		target = "http://" + target
	}
	url := target + "/debug/pprof/" + kind
	timeout := 30 * time.Second
	if kind == "cpu" {
		url = fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", target, seconds)
		timeout = time.Duration(seconds)*time.Second + 30*time.Second
	}
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return io.ReadAll(resp.Body)
}

// ---------------------------------------------------------------------------
// convert

func runConvert(args []string) error {
	fs := flag.NewFlagSet("cali-prof convert", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default: stdout)")
	folded := fs.Bool("folded", false, "write folded flame stacks instead of .cali")
	sample := fs.String("sample", "", "sample type for -folded (e.g. \"samples\", \"inuse_space\"; default: first)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cali-prof convert [flags] profile.pb.gz\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one pprof input file (\"-\" for stdin)")
	}
	var raw []byte
	var err error
	if fs.Arg(0) == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		return err
	}
	return writeConverted(raw, *out, *folded, *sample)
}

// writeConverted parses raw pprof bytes and writes .cali or folded
// output to target ("" or "-" = stdout).
func writeConverted(raw []byte, target string, folded bool, sampleType string) error {
	p, err := prof.Parse(raw)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	var f *os.File
	if target != "" && target != "-" {
		f, err = os.Create(target)
		if err != nil {
			return err
		}
		w = f
	}
	if folded {
		idx := 0
		if sampleType != "" {
			idx = -1
			for i, vt := range p.SampleType {
				if vt.Type == sampleType {
					idx = i
					break
				}
			}
			if idx < 0 {
				var have []string
				for _, vt := range p.SampleType {
					have = append(have, vt.Type)
				}
				return fmt.Errorf("profile has no sample type %q (has: %s)",
					sampleType, strings.Join(have, ", "))
			}
		}
		err = prof.WriteFolded(p, w, idx)
	} else {
		var stats prof.ConvertStats
		stats, err = prof.Convert(p, w)
		if err == nil && f != nil {
			fmt.Fprintf(os.Stderr, "cali-prof: %s: %d samples, metrics: %s\n",
				target, stats.Samples, strings.Join(stats.Metrics, ", "))
		}
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// top

func runTop(args []string) error {
	fs := flag.NewFlagSet("cali-prof top", flag.ContinueOnError)
	metric := fs.String("metric", "cpu.samples", "metric attribute to rank by")
	n := fs.Int("n", 20, "number of functions to show (0 = all)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cali-prof top [flags] file.cali [file2.cali ...]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("no input files")
	}
	q := fmt.Sprintf("SELECT prof.function, sum(%s) GROUP BY prof.function", *metric)
	res, err := calql.Run(context.Background(), q, fs.Args(), calql.Options{})
	if err != nil {
		return err
	}
	fnAttr, ok := res.Reg.Find(prof.AttrFunction)
	if !ok {
		return fmt.Errorf("no %s data in input (not a converted profile?)", prof.AttrFunction)
	}

	// fold the per-path rows into per-function flat/cum like pprof's top:
	// flat attributes a path's exclusive total to its leaf; cum adds it to
	// every distinct function on the path (so interior-only frames get
	// their subtree totals too, and recursion counts once per path)
	type fnTotals struct {
		name      string
		flat, cum int64
	}
	totals := map[string]*fnTotals{}
	get := func(name string) *fnTotals {
		ft := totals[name]
		if ft == nil {
			ft = &fnTotals{name: name}
			totals[name] = ft
		}
		return ft
	}
	var grandTotal int64
	seen := map[string]bool{}
	for _, row := range res.Rows {
		vals := row.ValuesOf(fnAttr.ID())
		if len(vals) == 0 {
			continue
		}
		v, ok := row.GetByName("sum#" + *metric)
		if !ok {
			continue
		}
		excl := v.AsInt()
		get(vals[len(vals)-1].String()).flat += excl
		grandTotal += excl
		clear(seen)
		for _, fv := range vals {
			if name := fv.String(); !seen[name] {
				seen[name] = true
				get(name).cum += excl
			}
		}
	}
	if len(totals) == 0 {
		return fmt.Errorf("no %s values in input", *metric)
	}
	rows := make([]*fnTotals, 0, len(totals))
	for _, ft := range totals {
		rows = append(rows, ft)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cum != rows[j].cum {
			return rows[i].cum > rows[j].cum
		}
		if rows[i].flat != rows[j].flat {
			return rows[i].flat > rows[j].flat
		}
		return rows[i].name < rows[j].name
	})
	if *n > 0 && len(rows) > *n {
		rows = rows[:*n]
	}
	pct := func(v int64) float64 {
		if grandTotal == 0 {
			return 0
		}
		return 100 * float64(v) / float64(grandTotal)
	}
	fmt.Printf("%12s %7s %12s %7s  %s   (total %s: %d)\n",
		"FLAT", "FLAT%", "CUM", "CUM%", "FUNCTION", *metric, grandTotal)
	for _, ft := range rows {
		fmt.Printf("%12d %6.2f%% %12d %6.2f%%  %s\n",
			ft.flat, pct(ft.flat), ft.cum, pct(ft.cum), ft.name)
	}
	return nil
}

// ---------------------------------------------------------------------------
// tree

func runTree(args []string) error {
	fs := flag.NewFlagSet("cali-prof tree", flag.ContinueOnError)
	metric := fs.String("metric", "cpu.samples", "metric attribute to aggregate")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cali-prof tree [flags] file.cali [file2.cali ...]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("no input files")
	}
	q := fmt.Sprintf("SELECT prof.function, sum(%[1]s), inclusive_sum(%[1]s) "+
		"GROUP BY prof.function FORMAT tree", *metric)
	res, err := calql.Run(context.Background(), q, fs.Args(), calql.Options{})
	if err != nil {
		return err
	}
	if len(res.Rows) == 0 {
		return fmt.Errorf("no %s data in input", *metric)
	}
	return res.Render(os.Stdout)
}
