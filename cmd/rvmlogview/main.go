// rvmlogview is the post-mortem log inspection tool of paper §6:
// "transparent logging as a technique for debugging" — save a copy of the
// log before truncation and search or display the history of
// modifications it records, to trace the source of corrupted persistent
// data structures.
//
// A sharded store has several WAL files (the base log plus
// <log>.shard1, <log>.shard2, …); rvmlogview enumerates all of them by
// default, printing each shard's status line (including its
// forced-through LSN) before its records.  Cross-shard transactions
// appear as a prepare record on every participating shard plus one
// commit mark per shard; a prepare with no mark anywhere is an orphan
// that recovery will discard.
//
//	rvmlogview [flags] <log>
//	  -backward       walk tail-to-head (newest first)
//	  -shard N        only shard N (default: every shard present)
//	  -seg N          only records touching segment N
//	  -tid N          only the transaction with this id
//	  -touches OFF    only records modifying byte OFF (with -seg)
//	  -data           hex-dump each range's new values
//	  -max N          stop after N records (per shard)
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/rvm-go/rvm/internal/wal"
)

// shardLogs enumerates the WAL files of a (possibly sharded) store:
// the base log, then every contiguous <base>.shard<k> sibling.
func shardLogs(base string) []string {
	paths := []string{base}
	for k := 1; ; k++ {
		p := fmt.Sprintf("%s.shard%d", base, k)
		if _, err := os.Stat(p); err != nil {
			break
		}
		paths = append(paths, p)
	}
	return paths
}

func main() {
	backward := flag.Bool("backward", false, "walk tail-to-head (newest first)")
	shard := flag.Int("shard", -1, "only this shard (default: all shards present)")
	segFilter := flag.Int64("seg", -1, "only records touching this segment id")
	tidFilter := flag.Int64("tid", -1, "only this transaction id")
	touches := flag.Int64("touches", -1, "only records modifying this byte offset (requires -seg)")
	dumpData := flag.Bool("data", false, "hex-dump range contents")
	max := flag.Int("max", 0, "stop after this many records per shard (0 = all)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rvmlogview [flags] <log>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	paths := shardLogs(flag.Arg(0))
	if *shard >= 0 {
		if *shard >= len(paths) {
			fmt.Fprintf(os.Stderr, "rvmlogview: shard %d not present (store has %d)\n", *shard, len(paths))
			os.Exit(1)
		}
		paths = paths[*shard : *shard+1]
	}
	for i, path := range paths {
		idx := i
		if *shard >= 0 {
			idx = *shard
		}
		if err := viewLog(path, idx, len(paths) > 1 || *shard >= 0,
			*backward, *segFilter, *tidFilter, *touches, *dumpData, *max); err != nil {
			fmt.Fprintln(os.Stderr, "rvmlogview:", err)
			os.Exit(1)
		}
	}
}

func viewLog(path string, shard int, sharded bool,
	backward bool, segFilter, tidFilter, touches int64, dumpData bool, max int) error {
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
	label := "log"
	if sharded {
		label = fmt.Sprintf("shard %d (%s)", shard, path)
	}
	fmt.Printf("%s: area %d bytes, %d live; head pos %d (seq %d), tail pos %d (next seq %d), forced-through LSN %d\n",
		label, l.AreaSize(), l.Used(), headPos, headSeq, tailPos, nextSeq, l.ForcedThrough())

	shown := 0
	stop := fmt.Errorf("done")
	visit := func(r *wal.Record) error {
		switch r.Type {
		case wal.RecCheckpoint:
			// Checkpoint records carry no ranges; segment and offset
			// filters never match them, but an unfiltered or tid=0 view
			// shows where a restart's redo starts.
			if tidFilter > 0 || segFilter >= 0 {
				return nil
			}
			fmt.Printf("seq %-6d checkpoint  pos %-8d len %-8d stable seq %d (records below are reflected)\n",
				r.Seq, r.Pos, r.Len, r.CkptSeq)
		case wal.RecCommit:
			// The TID slot holds the global commit id; a mark commits
			// every prepare with that id on every shard.
			if tidFilter >= 0 && r.TID != uint64(tidFilter) {
				return nil
			}
			if segFilter >= 0 {
				return nil
			}
			fmt.Printf("seq %-6d commit-mark pos %-8d len %-8d gid %d (commits this id's prepares on all shards)\n",
				r.Seq, r.Pos, r.Len, r.TID)
		default: // RecTx, RecPrepare
			if tidFilter >= 0 && r.TID != uint64(tidFilter) {
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
		}
		shown++
		if max > 0 && shown >= max {
			return stop
		}
		return nil
	}
	if backward {
		err = l.ScanBackward(visit)
	} else {
		err = l.ScanForward(visit)
	}
	if err != nil && err != stop {
		return err
	}
	fmt.Printf("%d record(s)\n", shown)
	return nil
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
	kind := "tx"
	if r.Type == wal.RecPrepare {
		kind = "prepare"
	}
	fmt.Printf("seq %-6d %-11s tid %-6d pos %-8d len %-8d %-18s %d range(s), %d payload byte(s)\n",
		r.Seq, kind, r.TID, r.Pos, r.Len, flagNames(r.Flags), len(r.Ranges), bytes)
	for _, rg := range r.Ranges {
		fmt.Printf("    seg %-4d [%d, +%d)\n", rg.Seg, rg.Off, len(rg.Data))
		if dump {
			for _, line := range strings.Split(strings.TrimRight(hex.Dump(rg.Data), "\n"), "\n") {
				fmt.Println("        " + line)
			}
		}
	}
}
