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
// read-only.
package main

import (
	"fmt"
	"os"

	"repro/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "merge":
		if len(args) < 2 {
			usage()
			os.Exit(2)
		}
		merge(args[0], args[1:])
	case "verify":
		if len(args) < 1 {
			usage()
			os.Exit(2)
		}
		verify(args)
	case "stats":
		if len(args) < 1 {
			usage()
			os.Exit(2)
		}
		stats(args)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  storectl merge DST SRC [SRC...]   union SRC stores (and DST's own records) into DST
  storectl verify DIR [DIR...]      audit framing, CRCs, values and SimVersion (exit 1 on faults)
  storectl stats DIR [DIR...]       print record/profile/byte counts
`)
}

func merge(dst string, srcs []string) {
	ms, err := store.Merge(dst, srcs...)
	if err != nil {
		die(err)
	}
	fmt.Printf("merged %d sources into %s: records=%d added=%d dedup=%d superseded=%d dropped=%d bytes=%d\n",
		ms.Sources, dst, ms.Records, ms.Added, ms.Dedup, ms.Superseded, ms.Dropped, ms.Bytes)
}

func verify(dirs []string) {
	faults := 0
	for _, dir := range dirs {
		c, err := store.CheckDir(dir)
		if err != nil {
			die(err)
		}
		if c.Ok() {
			fmt.Printf("%s: ok records=%d profiles=%d superseded=%d bytes=%d simversion=%d\n",
				dir, c.Live, c.Profiles, c.Superseded, c.Bytes, c.SimVersion)
			continue
		}
		faults += len(c.Faults)
		fmt.Printf("%s: %d fault(s)\n", dir, len(c.Faults))
		for _, f := range c.Faults {
			fmt.Printf("  FAULT: %s\n", f)
		}
	}
	if faults > 0 {
		os.Exit(1)
	}
}

func stats(dirs []string) {
	for _, dir := range dirs {
		c, err := store.CheckDir(dir)
		if err != nil {
			die(err)
		}
		stamp := "missing"
		if c.HasStamp {
			stamp = fmt.Sprintf("%d", c.SimVersion)
		}
		fmt.Printf("%s: records=%d profiles=%d superseded=%d dropped=%d bytes=%d simversion=%s\n",
			dir, c.Live, c.Profiles, c.Superseded, c.Dropped, c.Bytes, stamp)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "storectl:", err)
	os.Exit(1)
}
