// Command storectl administers persistent result-store directories (the
// -cache-dir format shared by report, adaptd and adaptsim).
//
// Usage:
//
//	storectl merge DST SRC [SRC...]   union the live records of the SRC
//	                                  stores (and DST's own) into DST
//	storectl verify DIR [DIR...]      validate framing, CRCs, record
//	                                  values and the SimVersion stamp;
//	                                  exits 1 on any fault
//	storectl stats DIR [DIR...]       print record/profile/byte counts
//
// merge is crash-safe (temp file + atomic rename), collapses identical
// duplicate records, and refuses divergent duplicates (same key,
// different bytes) and stores stamped with a different store.SimVersion —
// see CLAUDE.md's merge contract. verify and stats are strictly
// read-only. A malformed command line exits 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/store"
)

func main() {
	err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil && !errors.Is(err, flag.ErrHelp):
		os.Exit(1)
	}
}

const usage = `usage:
  storectl merge DST SRC [SRC...]   union SRC stores (and DST's own records) into DST
  storectl verify DIR [DIR...]      audit framing, CRCs, values and SimVersion (exit 1 on faults)
  storectl stats DIR [DIR...]       print record/profile/byte counts
`

// errUsage is returned, after the usage text is printed, for a command
// line that names no known subcommand or too few directories.
var errUsage = errors.New("storectl: bad command line")

// run is the whole command: it parses args, writes each subcommand's
// report to stdout and errors to stderr, and returns the error. Every
// subcommand is short, so it takes no context.
func run(_ context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("storectl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprint(stderr, usage) }
	if err := fs.Parse(args); err != nil {
		return err
	}
	defer func() {
		if err != nil && !errors.Is(err, errUsage) {
			fmt.Fprintln(stderr, "storectl:", err)
		}
	}()
	var cmd string
	var dirs []string
	if fs.NArg() > 0 {
		cmd, dirs = fs.Arg(0), fs.Args()[1:]
	}
	switch {
	case cmd == "merge" && len(dirs) >= 2:
		return merge(stdout, dirs[0], dirs[1:])
	case cmd == "verify" && len(dirs) >= 1:
		return verify(stdout, dirs)
	case cmd == "stats" && len(dirs) >= 1:
		return stats(stdout, dirs)
	}
	fs.Usage()
	return errUsage
}

func merge(w io.Writer, dst string, srcs []string) error {
	ms, err := store.Merge(dst, srcs...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "merged %d sources into %s: records=%d added=%d dedup=%d superseded=%d dropped=%d bytes=%d\n",
		ms.Sources, dst, ms.Records, ms.Added, ms.Dedup, ms.Superseded, ms.Dropped, ms.Bytes)
	return nil
}

func verify(w io.Writer, dirs []string) error {
	faults := 0
	for _, dir := range dirs {
		c, err := store.CheckDir(dir)
		if err != nil {
			return err
		}
		if c.Ok() {
			fmt.Fprintf(w, "%s: ok records=%d profiles=%d superseded=%d bytes=%d simversion=%d\n",
				dir, c.Live, c.Profiles, c.Superseded, c.Bytes, c.SimVersion)
			continue
		}
		faults += len(c.Faults)
		fmt.Fprintf(w, "%s: %d fault(s)\n", dir, len(c.Faults))
		for _, f := range c.Faults {
			fmt.Fprintf(w, "  FAULT: %s\n", f)
		}
	}
	if faults > 0 {
		return fmt.Errorf("%d fault(s)", faults)
	}
	return nil
}

func stats(w io.Writer, dirs []string) error {
	for _, dir := range dirs {
		c, err := store.CheckDir(dir)
		if err != nil {
			return err
		}
		stamp := "missing"
		if c.HasStamp {
			stamp = fmt.Sprintf("%d", c.SimVersion)
		}
		fmt.Fprintf(w, "%s: records=%d profiles=%d superseded=%d dropped=%d bytes=%d simversion=%s\n",
			dir, c.Live, c.Profiles, c.Superseded, c.Dropped, c.Bytes, stamp)
	}
	return nil
}
