// rvmlogview is the post-mortem log inspection tool of paper §6:
// "transparent logging as a technique for debugging" — save a copy of the
// log before truncation and search or display the history of
// modifications it records, to trace the source of corrupted persistent
// data structures.  The log's status line, its forced-through LSN
// included, comes before its records.
//
//	rvmlogview [flags] <log>
//	  -backward       walk tail-to-head (newest first)
//	  -seg N          only records touching segment N
//	  -tid N          only the transaction with this id (its low 32 bits, what a record keeps)
//	  -touches OFF    only records modifying byte OFF (with -seg)
//	  -data           hex-dump each range's new values
//	  -max N          stop after N records
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/rvm-go/rvm/internal/wal"
)

func main() {
	backward := flag.Bool("backward", false, "walk tail-to-head (newest first)")
	segFilter := flag.Int64("seg", -1, "only records touching this segment id")
	tidFilter := flag.Int64("tid", -1, "only this transaction id (its low 32 bits)")
	touches := flag.Int64("touches", -1, "only records modifying this byte offset (requires -seg)")
	dumpData := flag.Bool("data", false, "hex-dump range contents")
	max := flag.Int("max", 0, "stop after this many records (0 = all)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rvmlogview [flags] <log>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := viewLog(flag.Arg(0), *backward, *segFilter, *tidFilter, *touches, *dumpData, *max); err != nil {
		fmt.Fprintln(os.Stderr, "rvmlogview:", err)
		os.Exit(1)
	}
}

func viewLog(path string, backward bool, segFilter, tidFilter, touches int64, dumpData bool, max int) error {
	l, err := wal.Open(path)
	if err != nil {
		return err
	}
	defer l.Close()

	// The forced-through LSN is what obs log-force events report in their
	// B field; printing it here lets a saved log be correlated with a
	// captured trace.  At open everything discovered on disk is durable,
	// so it equals the newest live sequence number.
	headPos, headSeq := l.Head()
	tailPos, nextSeq := l.Tail()
	fmt.Printf("log: area %d bytes, %d live; head pos %d (seq %d), tail pos %d (next seq %d), forced-through LSN %d\n",
		l.AreaSize(), l.Used(), headPos, headSeq, tailPos, nextSeq, l.ForcedThrough())

	shown := 0
	stop := fmt.Errorf("done")
	visit := func(r *wal.Record) error {
		if tidFilter >= 0 && uint32(r.TID) != uint32(tidFilter) {
			return nil
		}
		match := segFilter < 0
		for _, rg := range r.Ranges {
			if segFilter >= 0 && rg.Seg == uint64(segFilter) {
				if touches < 0 ||
					(uint64(touches) >= rg.Off && uint64(touches) < rg.Off+uint64(len(rg.Data))) {
					match = true
				}
			}
		}
		if !match {
			return nil
		}
		printRecord(r, dumpData)
		shown++
		if max > 0 && shown >= max {
			return stop
		}
		return nil
	}
	if backward {
		// Newest first is the forward scan reversed: a record keeps no
		// reverse displacement, and the scan checked each one on the way.
		var recs []wal.Record
		if err = l.ScanForward(func(r *wal.Record) error {
			recs = append(recs, cloneRecord(r))
			return nil
		}); err == nil {
			for i := len(recs) - 1; i >= 0 && err == nil; i-- {
				err = visit(&recs[i])
			}
		}
	} else {
		err = l.ScanForward(visit)
	}
	if err != nil && err != stop {
		return err
	}
	fmt.Printf("%d record(s)\n", shown)
	return nil
}

// cloneRecord copies r out of the scan's window, which is reused.
func cloneRecord(r *wal.Record) wal.Record {
	cp := *r
	cp.Ranges = slices.Clone(r.Ranges)
	for i := range cp.Ranges {
		cp.Ranges[i].Data = slices.Clone(cp.Ranges[i].Data)
	}
	return cp
}

// flagNames decodes the record flags written by the engine.
func flagNames(f uint8) string {
	var out []string
	if f&1 != 0 {
		out = append(out, "no-flush")
	}
	if f&2 != 0 {
		out = append(out, "no-restore")
	}
	if len(out) == 0 {
		return "flush"
	}
	return strings.Join(out, ",")
}

func printRecord(r *wal.Record, dump bool) {
	var bytes int
	for _, rg := range r.Ranges {
		bytes += len(rg.Data)
	}
	fmt.Printf("seq %-6d %-11s tid %-6d pos %-8d len %-8d %-18s %d range(s), %d payload byte(s)\n",
		r.Seq, "tx", r.TID, r.Pos, r.Len, flagNames(r.Flags), len(r.Ranges), bytes)
	for _, rg := range r.Ranges {
		fmt.Printf("    seg %-4d [%d, +%d)\n", rg.Seg, rg.Off, len(rg.Data))
		if dump {
			for _, line := range strings.Split(strings.TrimRight(hex.Dump(rg.Data), "\n"), "\n") {
				fmt.Println("        " + line)
			}
		}
	}
}
