// Command measuredb inspects and maintains measurement databases written by
// paratune -db / harmonyd -db (see internal/measuredb).
//
// Usage:
//
//	measuredb info <dir>                     summary: seed, space, WAL size, best config
//	measuredb export [-format jsonl] <dir>   per-configuration aggregates to stdout
//	measuredb export -raw <dir>              raw observations to stdout (JSONL)
//	measuredb compact <dir>                  rewrite the WAL in (origin, seq) order
//	measuredb merge -out <dir> <src>...      merge source stores into one
//	measuredb sync <dir> <host:port>         anti-entropy round against a harmonyd peer
//
// merge and sync are the same set union keyed by each observation's
// (origin, seq) identity: both are idempotent and order-independent, and
// both report how many shipped observations the receiver already held. sync
// ships per-origin WAL segments both ways; a round cut short keeps what it
// applied, and the next round pulls exactly the remainder.
// merge validates every source before the destination is touched, so a
// failed merge never leaves a partial -out store behind.
//
// Opening a store replays its write-ahead log; a corrupted tail is truncated
// at the first bad record and reported on stderr, so info/compact double as
// the recovery tools.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"

	"paratune/internal/feddb"

	"paratune/internal/measuredb"
	"paratune/internal/space"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "info":
		err = runInfo(os.Args[2:])
	case "export":
		err = runExport(os.Args[2:])
	case "compact":
		err = runCompact(os.Args[2:])
	case "merge":
		err = runMerge(os.Args[2:])
	case "sync":
		err = runSync(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, errLine(err))
		os.Exit(1)
	}
}

// errLine formats err for stderr behind one "measuredb: " prefix. The
// store's own errors already carry it; the command's do not.
func errLine(err error) string {
	const prefix = "measuredb: "
	msg := err.Error()
	if strings.HasPrefix(msg, prefix) {
		return msg
	}
	return prefix + msg
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: measuredb <command> [flags] <dir>...

commands:
  info     <dir>                  print store summary
  export   [-format csv|jsonl] [-raw] <dir>
                                  write aggregates (or raw observations) to stdout
  compact  <dir>                  rewrite the write-ahead log in (origin, seq)
                                  order with the current header
  merge    -out <dir> <src>...    merge source stores into a new one
  sync     <dir> <host:port>      run one anti-entropy round against a peer:
                                  pull and push the WAL segments either side
                                  lacks; rerun after a cut to pull the rest`)
	os.Exit(2)
}

// open opens dir and reports any WAL recovery on stderr.
func open(dir string) (*measuredb.Store, error) {
	s, err := measuredb.Open(dir, measuredb.Options{})
	if err != nil {
		return nil, err
	}
	if r := s.Recovery(); r != nil {
		fmt.Fprintf(os.Stderr, "measuredb: %s: recovered WAL — truncated at byte %d, dropped %d bytes (%d good frames)\n",
			dir, r.TruncatedAt, r.DroppedBytes, r.FramesApplied)
	}
	return s, nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info: want one store directory, got %d args", fs.NArg())
	}
	s, err := open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer s.Close()
	configs, obs := s.Stats()
	fmt.Printf("dir:           %s\n", s.Dir())
	fmt.Printf("seed:          %d\n", s.Seed())
	if sig := s.SpaceSig(); sig != "" {
		fmt.Printf("space:         %s\n", sig)
	} else {
		fmt.Printf("space:         (unbound)\n")
	}
	fmt.Printf("configs:       %d\n", configs)
	fmt.Printf("observations:  %d\n", obs)
	if fi, err := os.Stat(filepath.Join(s.Dir(), "wal.db")); err == nil {
		fmt.Printf("wal.db:        %d bytes\n", fi.Size())
	}
	var best *measuredb.Agg
	s.ForEach(func(a measuredb.Agg) {
		if best == nil || a.Min < best.Min {
			c := a
			best = &c
		}
	})
	if best != nil {
		fmt.Printf("best config:   %v  (min %g over %d observations)\n", best.Point, best.Min, best.Count)
	}
	return nil
}

func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	format := fs.String("format", "csv", "output format: csv or jsonl")
	raw := fs.Bool("raw", false, "export raw observations (JSONL) instead of aggregates")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("export: want one store directory, got %d args", fs.NArg())
	}
	s, err := open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer s.Close()

	enc := json.NewEncoder(os.Stdout)
	if *raw {
		var encErr error
		s.ForEachRaw(func(p space.Point, obs []float64) {
			if encErr != nil {
				return
			}
			encErr = enc.Encode(struct {
				Point []float64 `json:"point"`
				Obs   []float64 `json:"obs"`
			}{Point: p, Obs: obs})
		})
		return encErr
	}
	switch *format {
	case "jsonl":
		var encErr error
		s.ForEach(func(a measuredb.Agg) {
			if encErr != nil {
				return
			}
			encErr = enc.Encode(struct {
				Point  []float64 `json:"point"`
				Count  int       `json:"count"`
				Min    float64   `json:"min"`
				Mean   float64   `json:"mean"`
				Median float64   `json:"median"`
				P90    float64   `json:"p90"`
			}{Point: a.Point, Count: a.Count, Min: a.Min, Mean: a.Mean, Median: a.Median, P90: a.P90})
		})
		return encErr
	case "csv":
		dim := -1
		s.ForEach(func(a measuredb.Agg) {
			if dim < 0 {
				dim = len(a.Point)
				for i := 0; i < dim; i++ {
					fmt.Printf("x%d,", i)
				}
				fmt.Println("count,min,mean,median,p90")
			}
			for _, c := range a.Point {
				fmt.Printf("%g,", c)
			}
			fmt.Printf("%d,%g,%g,%g,%g\n", a.Count, a.Min, a.Mean, a.Median, a.P90)
		})
		return nil
	default:
		return fmt.Errorf("export: unknown format %q (want csv or jsonl)", *format)
	}
}

func runCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("compact: want one store directory, got %d args", fs.NArg())
	}
	s, err := open(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := s.Compact(); err != nil {
		s.Close()
		return err
	}
	configs, obs := s.Stats()
	fmt.Printf("compacted %s: %d configs, %d observations\n", s.Dir(), configs, obs)
	return s.Close()
}

func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("out", "", "destination store directory (required)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("merge: -out is required")
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("merge: want at least one source store")
	}
	srcs := make([]*measuredb.Store, 0, fs.NArg())
	defer func() {
		for _, s := range srcs {
			s.Close()
		}
	}()
	for _, dir := range fs.Args() {
		s, err := open(dir)
		if err != nil {
			return err
		}
		srcs = append(srcs, s)
	}
	// Stage the whole union in memory first: every cross-source conflict (a
	// space mismatch, diverged origin histories) surfaces before the -out
	// directory is created or touched, so a failed merge never leaves a
	// partial destination behind. The staging store adopts the first bound
	// source's space, and every other bound source must match it.
	seed := srcs[0].Seed()
	staging := measuredb.NewMemory(measuredb.Options{Seed: seed})
	var stats measuredb.MergeStats
	for i, s := range srcs {
		st, err := staging.Merge(s)
		if err != nil {
			return fmt.Errorf("merge: %s: %s", fs.Arg(i), strings.TrimPrefix(err.Error(), "measuredb: "))
		}
		stats.Applied += st.Applied
		stats.Duplicates += st.Duplicates
	}
	dst, err := measuredb.Open(*out, measuredb.Options{Seed: seed, Space: staging.SpaceSig()})
	if err != nil {
		return err
	}
	st, err := dst.Merge(staging)
	if err != nil {
		dst.Close()
		return err
	}
	stats.Duplicates += st.Duplicates
	if err := dst.Compact(); err != nil {
		dst.Close()
		return err
	}
	configs, obs := dst.Stats()
	fmt.Printf("merged %d store(s) into %s: %d configs, %d observations\n", len(srcs), *out, configs, obs)
	fmt.Printf("%d duplicate observations skipped\n", stats.Duplicates)
	return dst.Close()
}

func runSync(args []string) error {
	fs := flag.NewFlagSet("sync", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("sync: want <dir> <host:port>, got %d args", fs.NArg())
	}
	dir, addr := fs.Arg(0), fs.Arg(1)
	s, err := open(dir)
	if err != nil {
		return err
	}
	defer s.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	stats, err := feddb.Sync(conn, s, addr, feddb.Options{})
	if err != nil {
		return err
	}
	// Compact like merge does: the rewritten WAL header persists a space
	// binding adopted from the peer, which the header written at store
	// creation does not carry.
	if err := s.Compact(); err != nil {
		return err
	}
	fmt.Printf("pulled %d, pushed %d, %d duplicate observations skipped\n", stats.Pulled, stats.Pushed, stats.Duplicates)
	return nil
}
