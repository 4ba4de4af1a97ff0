// rvmutl is the RVM utility, analogous to the rvmutl that shipped with
// the original release: it creates logs and segments, inspects log and
// segment state, and forces truncation.
//
//	rvmutl create-log  <path> <bytes>
//	rvmutl create-seg  <path> <id> <bytes>
//	rvmutl status      <log>             # format, status block, live records
//	rvmutl segments    <log>             # segment dictionary
//	rvmutl seg-info    <segment>         # segment header
//	rvmutl truncate    <log>             # recover + truncate the log
//	rvmutl verify      <log>             # offline consistency check
//	rvmutl copy-log    <src> <dst> <n>   # resize or archive a log
//
// status, verify and truncate read the segment dictionary as the engine
// does, so they refuse a store the engine refuses.  They open the log as the
// engine does too: a version-1 log with no live records is upgraded, and one
// with live records is refused, naming its version.
package main

import (
	"fmt"
	"os"
	"strconv"

	rvm "github.com/rvm-go/rvm"
	"github.com/rvm-go/rvm/internal/core"
	"github.com/rvm-go/rvm/internal/segment"
	"github.com/rvm-go/rvm/internal/wal"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rvmutl create-log  <path> <bytes>
  rvmutl create-seg  <path> <id> <bytes>
  rvmutl status      <log>
  rvmutl segments    <log>
  rvmutl seg-info    <segment>
  rvmutl truncate    <log>
  rvmutl verify      <log>
  rvmutl copy-log    <src> <dst> <bytes>`)
	os.Exit(2)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "rvmutl:", err)
	os.Exit(1)
}

func parseInt(s string) int64 {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		die(fmt.Errorf("bad number %q", s))
	}
	return n
}

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "create-log":
		if len(args) != 2 {
			usage()
		}
		if err := rvm.CreateLog(args[0], parseInt(args[1])); err != nil {
			die(err)
		}
		fmt.Printf("created log %s\n", args[0])
	case "create-seg":
		if len(args) != 3 {
			usage()
		}
		if err := rvm.CreateSegment(args[0], uint64(parseInt(args[1])), parseInt(args[2])); err != nil {
			die(err)
		}
		fmt.Printf("created segment %s (id %s)\n", args[0], args[1])
	case "status":
		if len(args) != 1 {
			usage()
		}
		status(args[0])
	case "segments":
		if len(args) != 1 {
			usage()
		}
		segments(args[0])
	case "seg-info":
		if len(args) != 1 {
			usage()
		}
		segInfo(args[0])
	case "truncate":
		if len(args) != 1 {
			usage()
		}
		truncate(args[0])
	case "verify":
		if len(args) != 1 {
			usage()
		}
		verify(args[0])
	case "copy-log":
		if len(args) != 3 {
			usage()
		}
		copyLog(args[0], args[1], parseInt(args[2]))
	default:
		usage()
	}
}

// copyLog copies the live records of src into a freshly created log of a
// new size at dst, together with the segment dictionary.  Two uses: growing
// or shrinking a log offline, and archiving a log before truncation for
// post-mortem analysis with rvmlogview (§6 of the paper: "all we had to do
// was save a copy of the log before truncation").
func copyLog(srcPath, dstPath string, size int64) {
	src, err := wal.Open(srcPath)
	if err != nil {
		die(err)
	}
	defer src.Close()
	if err := wal.Create(dstPath, size); err != nil {
		die(err)
	}
	dst, err := wal.Open(dstPath)
	if err != nil {
		die(err)
	}
	defer dst.Close()
	records := 0
	err = src.ScanForward(func(r *wal.Record) error {
		if _, _, _, err := dst.Append(r.TID, r.Flags, r.Ranges); err != nil {
			return err
		}
		records++
		return nil
	})
	if err != nil {
		die(err)
	}
	if err := dst.Force(); err != nil {
		die(err)
	}
	if data, err := os.ReadFile(srcPath + ".segs"); err == nil {
		if err := os.WriteFile(dstPath+".segs", data, 0o644); err != nil {
			die(err)
		}
	}
	fmt.Printf("copied %d live record(s) into %s (%d-byte record area)\n",
		records, dstPath, dst.AreaSize())
}

// verify checks a store offline: the log scans clean — the scan checks each
// record's extent, check bytes and CRC under the sequence number it expects
// there — every segment the log references resolves through the dictionary,
// and each referenced range lies inside its segment.
func verify(logPath string) {
	dict, err := core.SegmentDictionary(logPath)
	if err != nil {
		die(err)
	}
	l, err := wal.Open(logPath)
	if err != nil {
		die(err)
	}
	defer l.Close()
	segs := map[uint64]*segment.Segment{}
	defer func() {
		for _, s := range segs {
			s.Close()
		}
	}()
	problems, records := 0, 0
	check := func(r *wal.Record) {
		for _, rg := range r.Ranges {
			s, ok := segs[rg.Seg]
			if !ok {
				segPath, found := dict[rg.Seg]
				if !found {
					fmt.Printf("PROBLEM: record seq %d references segment %d not in dictionary\n", r.Seq, rg.Seg)
					problems++
					continue
				}
				s, err = segment.Open(segPath)
				if err != nil {
					fmt.Printf("PROBLEM: segment %d (%s): %v\n", rg.Seg, segPath, err)
					problems++
					continue
				}
				segs[rg.Seg] = s
			}
			if int64(rg.Off)+int64(len(rg.Data)) > s.Length() {
				fmt.Printf("PROBLEM: record seq %d range [%d,+%d) exceeds segment %d length %d\n",
					r.Seq, rg.Off, len(rg.Data), rg.Seg, s.Length())
				problems++
			}
		}
	}
	headPos, headSeq := l.Head()
	if err := l.Scan(headPos, headSeq, func(recs []wal.Record) error {
		for i := range recs {
			records++
			check(&recs[i])
		}
		return nil
	}); err != nil {
		fmt.Printf("PROBLEM: scan: %v\n", err)
		problems++
	}
	if problems == 0 {
		fmt.Printf("ok: %d live record(s), %d segment(s) verified\n", records, len(segs))
		return
	}
	fmt.Printf("%d problem(s) found\n", problems)
	os.Exit(1)
}

// status prints the log's status block and a summary of its live records.
func status(path string) {
	if _, err := core.SegmentDictionary(path); err != nil {
		die(err)
	}
	l, err := wal.Open(path)
	if err != nil {
		die(err)
	}
	defer l.Close()
	head, headSeq := l.Head()
	tail, nextSeq := l.Tail()
	fmt.Printf("log:          %s\n", path)
	fmt.Printf("format:       version %d\n", wal.FormatVersion)
	fmt.Printf("record area:  %d bytes\n", l.AreaSize())
	fmt.Printf("live bytes:   %d (%.1f%%)\n", l.Used(), 100*float64(l.Used())/float64(l.AreaSize()))
	fmt.Printf("head:         offset %d, seq %d\n", head, headSeq)
	fmt.Printf("tail:         offset %d, next seq %d\n", tail, nextSeq)
	fmt.Printf("forced LSN:   %d\n", l.ForcedThrough())
	var recs, ranges int
	var bytes uint64
	segs := map[uint64]bool{}
	err = l.ScanForward(func(r *wal.Record) error {
		recs++
		for _, rg := range r.Ranges {
			ranges++
			bytes += uint64(len(rg.Data))
			segs[rg.Seg] = true
		}
		return nil
	})
	if err != nil {
		die(err)
	}
	fmt.Printf("live records: %d transactions, %d ranges, %d data bytes, %d segment(s)\n",
		recs, ranges, bytes, len(segs))
}

// segments prints the segment dictionary next to the log.
func segments(logPath string) {
	data, err := os.ReadFile(logPath + ".segs")
	if os.IsNotExist(err) {
		fmt.Println("no segment dictionary (no segments mapped yet)")
		return
	}
	if err != nil {
		die(err)
	}
	os.Stdout.Write(data)
}

// segInfo prints a segment file's header.
func segInfo(path string) {
	s, err := segment.Open(path)
	if err != nil {
		die(err)
	}
	defer s.Close()
	fmt.Printf("segment: %s\n", path)
	fmt.Printf("id:      %d\n", s.ID())
	fmt.Printf("length:  %d bytes\n", s.Length())
}

// truncate opens the store (running recovery) and truncates the log.
func truncate(logPath string) {
	db, err := rvm.Open(rvm.Options{LogPath: logPath, TruncateThreshold: -1})
	if err != nil {
		die(err)
	}
	defer db.Close()
	if err := db.Truncate(); err != nil {
		die(err)
	}
	qi, err := db.Query(nil)
	if err != nil {
		die(err)
	}
	st := db.Stats()
	fmt.Printf("recovered %d bytes, truncated; log now %d/%d bytes live\n",
		st.RecoveredBytes, qi.LogUsed, qi.LogSize)
}
