// Package wal implements RVM's write-ahead log.
//
// RVM uses a no-undo/redo value logging strategy (paper §5.1.1): because
// uncommitted changes are never reflected to an external data segment, only
// the new-value records of committed transactions are written to the log.
// One log record holds an entire committed transaction — its modification
// ranges followed by the commit trailer — so a record is the atomic unit of
// commitment.  As in the paper's Figure 5, every record carries both a
// forward displacement (totalLen in the header) and a reverse displacement
// (totalLen repeated in the trailer), allowing the log to be read in either
// direction; crash recovery reads it head-to-tail, once (scan).
//
// On-disk layout:
//
//	offset 0:          status block, copy A (one page)
//	offset PageSize:   status block, copy B (one page)
//	offset 2*PageSize: record area (circular)
//
// The status block records the head of the live region and the sequence
// number expected there.  The tail is never persisted on the commit path:
// Open rediscovers it by scanning forward from the head while records carry
// consecutive sequence numbers and valid CRCs.  This keeps a committing
// transaction at a single fsync, matching the paper's single log force per
// commit (17.4 ms on their disks).
//
// Records never straddle the end of the record area.  When an append would
// cross it, a wrap record pads out the remaining gap; when a record would
// leave a gap too small to hold even a wrap record, the record absorbs the
// gap as padding.  Consequently every record is contiguous on disk, and
// every walk reads the area in plain sequential chunks.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/mapping"
	"github.com/rvm-go/rvm/internal/obs"
)

const (
	// statusMagic identifies a log status block.
	statusMagic = 0x52564c53 // "RVLS"
	// recMagic identifies a log record header.
	recMagic = 0x52564c47 // "RVLG"
	// formatVersion is the on-disk format version.
	formatVersion = 1

	headerSize  = 32 // magic, totalLen, type, flags, nranges, seqno, tid
	trailerSize = 16 // seqno, totalLen (reverse displacement), crc
	// minRecordSize is the smallest encodable record (a wrap record).
	minRecordSize = headerSize + trailerSize
	// rangeHdrSize prefixes each modification range: segID, off, len.
	rangeHdrSize = 8 + 8 + 4

	statusSize = 4 + 4 + 8 + 8 + 8 + 8 + 4 // magic, ver, gen, areaSize, head, headSeq, crc
)

// Record types.
const (
	recTx   uint8 = 1 // a committed transaction's new-value records
	recWrap uint8 = 2 // padding to the end of the record area
	recCkpt uint8 = 3 // fuzzy checkpoint: stable LSN, no ranges
)

// Exported record types, as reported in Record.Type.
const (
	RecTx         = recTx
	RecWrap       = recWrap
	RecCheckpoint = recCkpt
)

var (
	// ErrLogFull is returned by Append when the record does not fit in the
	// free space of the log; the caller should truncate and retry.
	ErrLogFull = errors.New("wal: log full")
	// ErrTooBig is returned when a record can never fit, even in an empty
	// log.
	ErrTooBig = errors.New("wal: record larger than log")
	// ErrNotLog is returned when a file lacks a valid status block.
	ErrNotLog = errors.New("wal: file is not an RVM log")
	// ErrLogClosed is returned by operations on a closed log — reachable
	// when a crash simulation or shutdown closes the device while a
	// background truncation still holds a reference to the log.
	ErrLogClosed = errors.New("wal: log closed")
)

// Device is the storage a Log runs on — the iofault seam shared with the
// segment layer.  *os.File satisfies it; tests inject fault devices that
// tear writes or fail operations to simulate failing disks.
type Device = iofault.Device

// Range is one modification range of a transaction: new values for
// Data bytes at Off within segment Seg.
type Range struct {
	Seg  uint64
	Off  uint64
	Data []byte
}

// Record is a decoded log record.  Checkpoint records carry the stable
// sequence number in CkptSeq and have nil Ranges; scans deliver them so
// tools can display them, but only transaction records modify segments.
type Record struct {
	Pos     int64 // record-area offset of the record's first byte
	Len     int64 // encoded size on disk, header through trailer
	Seq     uint64
	TID     uint64
	Type    uint8
	Flags   uint8
	CkptSeq uint64 // checkpoint records: the stable sequence number
	Ranges  []Range
}

// Stats counts log activity since Open.
type Stats struct {
	Appends       uint64 // transaction records appended
	BytesAppended uint64 // bytes of records appended (incl. wrap/padding)
	Forces        uint64 // fsyncs issued
	Wraps         uint64 // wrap records written
	Checkpoints   uint64 // checkpoint records appended
}

// Log is an open write-ahead log.  All methods are safe for concurrent use.
type Log struct {
	mu       obs.Mutex // class bound by SetObs
	dev      Device
	areaSize int64

	head      int64  // area offset of oldest live byte
	headSeq   uint64 // seqno expected at head
	used      int64  // live bytes (head..tail, circular)
	nextSeq   uint64 // seqno of the next record to append
	gen       uint64 // status block generation
	dirty     bool   // appended bytes not yet forced
	forcedSeq uint64 // highest seqno covered by a completed Force

	noSync      bool
	skippedSync bool // a Force skipped its fsync while noSync was set

	openScanNs int64 // how long Open's tail scan took; reported by SetObs

	// Head-move claim: SetHead persists the status block with l.mu
	// released (fsync under the log mutex would stall the append path),
	// and the claim serializes concurrent head moves instead.
	headBusy bool
	headCond *sync.Cond // lazily created; signalled when a head move finishes

	stats Stats

	// Observability sinks (nil-safe).  Set once via SetObs before the log
	// is shared; emission happens outside l.mu (enforced by the rvmcheck
	// obsleak analyzer), so handles are snapshotted under the lock and
	// used after release.
	tr  *obs.Tracer
	met *obs.Metrics
}

// SetObs attaches a tracer and metrics registry to the log.  Call it
// before the log is shared between goroutines; nil disables a sink.  The
// registry did not exist yet when Open scanned for the tail, so that scan's
// duration is reported here.
func (l *Log) SetObs(tr *obs.Tracer, m *obs.Metrics) {
	l.mu.Bind(obs.LockWAL, m)
	l.mu.Lock()
	l.tr, l.met = tr, m
	openScan := l.openScanNs
	l.mu.Unlock()
	m.ObserveOpenScan(openScan)
}

// Tracer returns the tracer attached via SetObs (nil when tracing is
// off).  Recovery and truncation record their phase spans through it so
// their timelines land in the same ring as the log's own events.
func (l *Log) Tracer() *obs.Tracer {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tr
}

// Metrics returns the registry attached via SetObs (nil when metrics are
// off).  Recovery observes its phase durations through it.
func (l *Log) Metrics() *obs.Metrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.met
}

// align8 rounds n up to a multiple of 8.
func align8(n int64) int64 { return (n + 7) &^ 7 }

// EncodedLen returns the encoded log size of a transaction record carrying
// ranges, excluding any wrap record.  Exposed so the engine can report how
// large a record that will not fit actually is.
func EncodedLen(ranges []Range) int64 { return encodedLen(ranges) }

// encodedLen returns the unpadded encoded length of a transaction record.
func encodedLen(ranges []Range) int64 {
	n := int64(headerSize + trailerSize)
	for _, r := range ranges {
		n += rangeHdrSize + int64(len(r.Data))
	}
	return align8(n)
}

// Create initializes a new log file at path with a record area of at least
// areaSize bytes (rounded up to whole pages).  It fails if path exists.
func Create(path string, areaSize int64) error {
	if areaSize < int64(mapping.PageSize) {
		return fmt.Errorf("wal: area size %d smaller than one page", areaSize)
	}
	areaSize = mapping.RoundUp(areaSize)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Truncate(2*int64(mapping.PageSize) + areaSize); err != nil {
		os.Remove(path)
		return fmt.Errorf("wal: size log: %w", err)
	}
	st := statusBlock{gen: 1, areaSize: areaSize, head: 0, headSeq: 1}
	if err := writeStatus(f, 0, st); err != nil {
		os.Remove(path)
		return err
	}
	if err := writeStatus(f, 1, st); err != nil {
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		os.Remove(path)
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

type statusBlock struct {
	gen      uint64
	areaSize int64
	head     int64
	headSeq  uint64
}

func writeStatus(dev Device, slot int, st statusBlock) error {
	b := make([]byte, statusSize)
	binary.BigEndian.PutUint32(b[0:], statusMagic)
	binary.BigEndian.PutUint32(b[4:], formatVersion)
	binary.BigEndian.PutUint64(b[8:], st.gen)
	binary.BigEndian.PutUint64(b[16:], uint64(st.areaSize))
	binary.BigEndian.PutUint64(b[24:], uint64(st.head))
	binary.BigEndian.PutUint64(b[32:], st.headSeq)
	binary.BigEndian.PutUint32(b[40:], crc32.ChecksumIEEE(b[:40]))
	off := int64(slot) * int64(mapping.PageSize)
	if _, err := dev.WriteAt(b, off); err != nil {
		return fmt.Errorf("wal: write status slot %d: %w", slot, err)
	}
	return nil
}

func readStatus(dev Device, slot int) (statusBlock, bool) {
	b := make([]byte, statusSize)
	off := int64(slot) * int64(mapping.PageSize)
	if _, err := dev.ReadAt(b, off); err != nil {
		return statusBlock{}, false
	}
	if binary.BigEndian.Uint32(b[0:]) != statusMagic ||
		binary.BigEndian.Uint32(b[4:]) != formatVersion ||
		crc32.ChecksumIEEE(b[:40]) != binary.BigEndian.Uint32(b[40:]) {
		return statusBlock{}, false
	}
	return statusBlock{
		gen:      binary.BigEndian.Uint64(b[8:]),
		areaSize: int64(binary.BigEndian.Uint64(b[16:])),
		head:     int64(binary.BigEndian.Uint64(b[24:])),
		headSeq:  binary.BigEndian.Uint64(b[32:]),
	}, true
}

// Open opens the log at path, validating the status block and rediscovering
// the tail by a forward scan.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l, err := OpenDevice(f)
	if err != nil {
		f.Close()
	}
	return l, err
}

// OpenDevice opens a log on an arbitrary device (used by tests to inject
// faults).
func OpenDevice(dev Device) (*Log, error) {
	l, _, err := OpenScan(dev, nil)
	return l, err
}

// OpenScan is OpenDevice for a caller that wants what the tail-finding scan
// reads, so that a restart reads its log once: every window of valid records
// goes to fn as the scan passes it (see Window), and the scan's analysis
// comes back with the log.
func OpenScan(dev Device, fn func(*Window) error) (*Log, Analysis, error) {
	var an Analysis
	a, okA := readStatus(dev, 0)
	b, okB := readStatus(dev, 1)
	var st statusBlock
	switch {
	case okA && okB:
		st = a
		if b.gen > a.gen {
			st = b
		}
	case okA:
		st = a
	case okB:
		st = b
	default:
		return nil, an, ErrNotLog
	}
	l := &Log{
		dev:      dev,
		areaSize: st.areaSize,
		head:     st.head,
		headSeq:  st.headSeq,
		gen:      st.gen,
	}
	t0 := time.Now()
	var err error
	if l.used, l.nextSeq, err = scan(dev, l.areaSize, l.head, l.headSeq, -1, &an, fn); err != nil {
		return nil, an, err
	}
	l.openScanNs = time.Since(t0).Nanoseconds()
	// Everything discovered in the log is already on the device, so the
	// forced-through sequence number starts at the last live record.
	l.forcedSeq = l.nextSeq - 1
	return l, an, nil
}

// areaOff converts a record-area offset into a device offset.
func areaOff(pos int64) int64 { return 2*int64(mapping.PageSize) + pos }

// A scan reads the record area in windows of scanChunk bytes, so a pass
// over the log costs one positional read per window rather than two per
// record; it works up to that size from minReadChunk, doubling per window,
// so that opening or truncating a nearly empty log reads next to nothing.
// ScanWindows bounds the windows one scan has out at a time: the one it is
// reading into and the ones its consumer still holds.  A consumer that
// builds from them on other goroutines overlaps with the reading; one that
// releases each before returning makes the scan refill a single buffer.
// Eight windows of 128 KiB are deep enough a queue that a scan and builders
// running at different paces rarely wait for each other, and still stay in
// a processor's second-level cache from the read through the checksum to
// the consumer (EXPERIMENTS.md, PR 22).
const (
	ScanWindows  = 8
	scanChunk    = 128 << 10
	minReadChunk = 4 << 10
)

// Window is one stretch of validated records as a scan hands it to its
// consumer: the records oldest first, wrap records left out, their range
// data aliasing the window's bytes.  The consumer calls Release, from any
// goroutine, once it is done with them; the scan then reads a later stretch
// into the same storage, so a pass over a long log holds ScanWindows
// windows, not the log.
type Window struct {
	Recs    []Record
	buf     []byte
	holders atomic.Int32 // Releases still to come, less one
	free    chan *Window // the scan's recycling queue; holds every window it made
}

// Share makes the window wait for n Releases, one from each goroutine its
// consumer hands it to.
func (w *Window) Share(n int) { w.holders.Store(int32(n - 1)) }

// Release gives the window's storage back to the scan that made it.
func (w *Window) Release() {
	if w.holders.Add(-1) < 0 {
		w.holders.Store(0)
		w.free <- w
	}
}

// Analysis is what a scan learns about the records it passes besides
// their contents: where each one is, and the checkpoint bound.
type Analysis struct {
	// recs holds the length of every record passed, wrap records included,
	// oldest first.
	recs     []uint32
	head     int64 // area offset and sequence number of the first record
	first    uint64
	areaSize int64
	// Stable is the newest checkpoint's stable sequence number (0 when no
	// checkpoint bounds redo): every record with Seq < Stable is already
	// reflected in its segment.
	Stable uint64
	// Scanned is the bytes from the record Stable names to the tail — all
	// that were passed without a checkpoint: what redo has to consider.
	Scanned int64
}

// Pos returns the area offset of the record carrying seq, so that a later
// Scan can start there; for a seq past the last record, the tail's.
func (an Analysis) Pos(seq uint64) int64 {
	pos := an.head
	for i := 0; i < len(an.recs) && an.first+uint64(i) < seq; i++ {
		if pos += int64(an.recs[i]); pos == an.areaSize {
			pos = 0
		}
	}
	return pos
}

// scan is the one forward pass over a log's records.  From the record at
// area offset pos, expected to carry seq, it reads the area a window at a
// time, validates and decodes each record once, notes it in an (unless nil)
// and hands each window's records to fn (unless nil; fn owns the window
// until it releases it).  With live < 0 the pass ends at the first bytes that are not
// the next record — a torn write or stale data — which is how Open finds the
// tail; otherwise exactly live bytes must hold valid records.  It returns
// the bytes walked and the sequence number after the last record.
func scan(dev Device, areaSize, pos int64, seq uint64, live int64, an *Analysis, fn func(*Window) error) (used int64, next uint64, err error) {
	toTail := live >= 0
	if !toTail {
		live = areaSize
	}
	if an != nil {
		an.head, an.first, an.areaSize = pos, seq, areaSize
	}
	free := make(chan *Window, ScanWindows)
	var made int
	var chunk int64
	need := int64(minRecordSize) // bytes the next window must hold to make progress
	for valid := true; valid && used < live; {
		limit := min(areaSize-pos, live-used)
		if limit < need {
			valid = false // not even a wrap record fits before the area's end
			break
		}
		var w *Window
		select {
		case w = <-free:
		default:
			if made == ScanWindows {
				w = <-free
			} else {
				w, made = &Window{free: free}, made+1
			}
		}
		chunk = min(max(2*chunk, minReadChunk), scanChunk)
		n := min(max(need, chunk), limit)
		if int64(cap(w.buf)) < n {
			w.buf = make([]byte, n)
		}
		got, rerr := dev.ReadAt(w.buf[:n], areaOff(pos))
		if int64(got) < need {
			// A window may run past the device's end (a truncated file);
			// only the bytes the next record needs must be there.
			return used, seq, fmt.Errorf("wal: read %d bytes at %d: %w", need, pos, rerr)
		}
		buf, recs := w.buf[:got], w.Recs[:0]
		need = minRecordSize
		for used < live && len(buf) >= minRecordSize {
			// Only the extent is taken from the unvalidated header;
			// decodeRecord re-reads it, with every other field, once the
			// CRC has checked out.
			totalLen := int64(binary.BigEndian.Uint32(buf[4:]))
			if binary.BigEndian.Uint32(buf[0:]) != recMagic || totalLen < minRecordSize || totalLen > min(areaSize-pos, live-used) {
				valid = false
				break
			}
			if totalLen > int64(len(buf)) {
				need = totalLen // straddles the window's end: the next one starts here
				break
			}
			if len(recs) < cap(recs) {
				recs = recs[:len(recs)+1] // reuse the slot's range storage
			} else {
				recs = append(recs, Record{})
			}
			rec := &recs[len(recs)-1]
			if valid = decodeRecord(rec, buf[:totalLen], pos, seq); !valid {
				recs = recs[:len(recs)-1]
				break
			}
			if rec.Type == recWrap {
				recs = recs[:len(recs)-1]
			}
			if an != nil {
				an.recs = append(an.recs, uint32(totalLen))
				if rec.Type == recCkpt {
					an.Stable = rec.CkptSeq // the newest one wins
				}
			}
			used, seq, buf = used+totalLen, seq+1, buf[totalLen:]
			if pos += totalLen; pos == areaSize {
				pos = 0
			}
		}
		if w.Recs = recs; len(recs) == 0 || fn == nil {
			w.Release()
		} else if err := fn(w); err != nil {
			return used, seq, err
		}
	}
	if toTail && used < live {
		return used, seq, fmt.Errorf("wal: live region corrupt at %d (seq %d)", pos, seq)
	}
	if an != nil {
		an.Scanned = used
		for i := 0; i < len(an.recs) && an.first+uint64(i) < an.Stable; i++ {
			an.Scanned -= int64(an.recs[i]) // below the stable LSN
		}
	}
	return used, seq, nil
}

// decodeRecord validates buf as one whole record at area offset pos and
// decodes it into rec, reusing rec.Ranges' storage; it reports false, with
// rec in an unspecified state, when buf is not a valid record.  Nothing is
// trusted before the CRC matches, and every field is parsed from the
// checked bytes.  A CRC is no defence against a hostile log (an attacker
// recomputes it), so each length is also bounded by the record's own extent
// before anything is sized by it.  Range data aliases buf.
func decodeRecord(rec *Record, buf []byte, pos int64, wantSeq uint64) bool {
	totalLen := int64(len(buf))
	if totalLen < minRecordSize || totalLen%8 != 0 ||
		binary.BigEndian.Uint32(buf[0:]) != recMagic ||
		int64(binary.BigEndian.Uint32(buf[4:])) != totalLen ||
		crc32.ChecksumIEEE(buf[:totalLen-4]) != binary.BigEndian.Uint32(buf[totalLen-4:]) {
		return false
	}
	seq := binary.BigEndian.Uint64(buf[16:])
	if seq != wantSeq && wantSeq != 0 {
		return false
	}
	if binary.BigEndian.Uint64(buf[totalLen-trailerSize:]) != seq ||
		int64(binary.BigEndian.Uint32(buf[totalLen-8:])) != totalLen {
		return false
	}
	ranges := rec.Ranges[:0]
	*rec = Record{
		Pos:   pos,
		Len:   totalLen,
		Seq:   seq,
		TID:   binary.BigEndian.Uint64(buf[24:]),
		Type:  buf[8],
		Flags: buf[9],
	}
	nranges := int64(binary.BigEndian.Uint32(buf[12:]))
	switch rec.Type {
	case recWrap:
	case recCkpt:
		// The stable sequence number rides in the TID header slot.
		rec.CkptSeq, rec.TID = rec.TID, 0
	case recTx:
		body := buf[headerSize : totalLen-trailerSize]
		if nranges > int64(len(body))/rangeHdrSize {
			return false
		}
		rec.Ranges = slices.Grow(ranges, int(nranges))
		for ; nranges > 0; nranges-- {
			if len(body) < rangeHdrSize {
				return false
			}
			n := int64(binary.BigEndian.Uint32(body[16:]))
			if n > int64(len(body))-rangeHdrSize {
				return false
			}
			rec.Ranges = append(rec.Ranges, Range{
				Seg:  binary.BigEndian.Uint64(body[0:]),
				Off:  binary.BigEndian.Uint64(body[8:]),
				Data: body[rangeHdrSize : rangeHdrSize+n : rangeHdrSize+n],
			})
			body = body[rangeHdrSize+n:]
		}
		return true
	default:
		return false
	}
	return nranges == 0
}

// tailPos returns the current append position.
func (l *Log) tailPos() int64 { return (l.head + l.used) % l.areaSize }

// Append writes one committed transaction's new-value records at the tail.
// The write reaches the OS but is not forced; call Force for durability.
// It returns the record's area position, its sequence number, and the total
// bytes consumed (including any wrap record).
func (l *Log) Append(tid uint64, flags uint8, ranges []Range) (pos int64, seq uint64, nbytes int64, err error) {
	ent := [1]Entry{{TID: tid, Flags: flags, Ranges: ranges}}
	if _, nbytes, err = l.appendRecords(ent[:]); err != nil {
		return 0, 0, 0, err
	}
	return ent[0].Pos, ent[0].Seq, nbytes, nil
}

// Entry is one transaction record of an AppendBatch.  The caller fills in
// TID, Flags and Ranges; Pos, Len and Seq come back for every record the
// batch appended.
type Entry struct {
	TID    uint64
	Flags  uint8
	Ranges []Range
	Pos    int64  // record-area offset of the record's first byte
	Len    int64  // encoded size on disk, padding included
	Seq    uint64 // sequence number
}

// AppendBatch appends ents in order as transaction records, exactly as a
// loop of Append would — same positions, same bytes, same counters — but
// with one device write per contiguous run of records instead of one per
// record.  It returns how many records were appended; the count falls short
// of len(ents) only with an error, and then the log is as if just that
// prefix had been appended: on ErrLogFull ents[n] is the record that did
// not fit, and after a failed write the caller may retry with ents[n:].
func (l *Log) AppendBatch(ents []Entry) (n int, err error) {
	n, _, err = l.appendRecords(ents)
	return n, err
}

// appendRecords is the locked append of transaction records that Append and
// AppendBatch share.
func (l *Log) appendRecords(ents []Entry) (n int, nbytes int64, err error) {
	l.mu.Lock()
	n, nbytes, err = l.appendLocked(recTx, ents)
	tr := l.tr
	l.mu.Unlock()
	if tr != nil {
		for i := range ents[:n] {
			tr.Record(obs.EvLogAppend, ents[i].TID, uint64(ents[i].Len), ents[i].Seq)
		}
	}
	return n, nbytes, err
}

// AppendCheckpoint writes a checkpoint record carrying the stable sequence
// number: every record with Seq < stable is fully reflected in its segment,
// so a later recovery starts its redo at stable.  The record is not forced;
// callers force it like any commit, after the pages it covers are durable.
func (l *Log) AppendCheckpoint(stable uint64) (pos int64, seq uint64, err error) {
	ent := [1]Entry{{TID: stable}}
	l.mu.Lock()
	_, nbytes, err := l.appendLocked(recCkpt, ent[:])
	tr := l.tr
	l.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	tr.Record(obs.EvLogAppend, 0, uint64(nbytes), ent[0].Seq)
	return ent[0].Pos, ent[0].Seq, nil
}

// Fits reports whether a record of need encoded bytes (EncodedLen) could be
// appended now: whether the free space holds it together with the wrap
// record or the padding its place at the tail calls for.  Free bytes alone do
// not say, because the space before the area's end may be too short for it.
func (l *Log) Fits(need int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _, _, err := l.planLocked(l.used, need)
	return err == nil
}

// planLocked places a record of need encoded bytes behind used live bytes.
// It returns the tail position at and one of two plans: gap > 0 — the record
// does not fit before the area's end, so a wrap record of gap bytes goes at
// at and the record itself, planned again, at 0 — or the record's length
// need, which absorbs a gap too small to hold even a wrap record so that
// the area end stays walkable.  It fails unless the record, and its wrap,
// fit in the free space.
func (l *Log) planLocked(used, need int64) (at, add, gap int64, err error) {
	if need > l.areaSize {
		return 0, 0, 0, fmt.Errorf("%w: need %d, area %d", ErrTooBig, need, l.areaSize)
	}
	at, add = (l.head+used)%l.areaSize, need
	if room := l.areaSize - at; need > room {
		gap = room
	} else if rem := room - need; rem > 0 && rem < minRecordSize {
		add += rem
	}
	if used+gap+add > l.areaSize {
		return 0, 0, 0, fmt.Errorf("%w: need %d, free %d", ErrLogFull, gap+add, l.areaSize-used)
	}
	return at, add, gap, nil
}

// maxRunBytes bounds one device write of a batch, and with it the encoding
// buffer: a megabyte-sized drain goes out in a few writes from a buffer the
// pool keeps, not in one write from a buffer grown and dropped every time.
const maxRunBytes = 256 << 10

// appendLocked appends ents, in order, as records of type typ.  Records are
// encoded into one pooled buffer for as long as they are contiguous in the
// area and the run stays within maxRunBytes; a run reaches the device in a
// single write, and only then are its records published — used, nextSeq and
// the counters never describe bytes the device may not hold, so a caller
// that retries after a failed write plans the same records at the same
// places.  It returns the records and bytes published (wrap records
// included in the bytes).
func (l *Log) appendLocked(typ uint8, ents []Entry) (n int, nbytes int64, err error) {
	if l.dev == nil {
		return 0, 0, ErrLogClosed
	}
	eb := encPool.Get().(*encBuf)
	defer eb.release()
	var want int64
	for i := range ents {
		want += encodedLen(ents[i].Ranges)
	}
	buf := slices.Grow(eb.buf[:0], int(min(want, maxRunBytes)))
	var runPos int64 // area offset of the run's first byte
	var wraps int    // wrap records in the run; its other records are ents[n:i]
	for i := 0; ; {
		var at, add, gap int64
		if i < len(ents) {
			if at, add, gap, err = l.planLocked(l.used+int64(len(buf)), encodedLen(ents[i].Ranges)); gap > 0 {
				add = gap
			}
		}
		if run := int64(len(buf)); run > 0 && (i == len(ents) || err != nil || at != runPos+run || run+add > maxRunBytes) {
			if _, werr := l.dev.WriteAt(buf, areaOff(runPos)); werr != nil {
				return n, nbytes, fmt.Errorf("wal: append at %d: %w", runPos, werr)
			}
			l.used += run
			l.nextSeq += uint64(i - n + wraps)
			l.dirty = true
			l.stats.Wraps += uint64(wraps)
			l.stats.BytesAppended += uint64(run)
			if typ == recCkpt {
				l.stats.Checkpoints += uint64(i - n)
			} else {
				l.stats.Appends += uint64(i - n)
			}
			nbytes += run
			n, wraps, buf = i, 0, buf[:0]
		}
		if i == len(ents) || err != nil {
			return n, nbytes, err
		}
		if len(buf) == 0 {
			runPos = at
		}
		seq := l.nextSeq + uint64(i-n+wraps)
		if gap > 0 {
			buf = appendRecord(buf, seq, recWrap, 0, 0, nil, gap)
			wraps++
		} else {
			ent := &ents[i]
			ent.Pos, ent.Len, ent.Seq = at, add, seq
			buf = appendRecord(buf, seq, typ, ent.TID, ent.Flags, ent.Ranges, add)
			i++
		}
		eb.buf = buf // the pool keeps the buffer as grown
	}
}

// encBuf is the pooled buffer appendLocked encodes a run of records into.
type encBuf struct{ buf []byte }

// encBufMaxRetain bounds the backing array a pooled encBuf may keep: a
// one-off giant record (or a huge wrap gap) should not pin megabytes in
// the pool forever.
const encBufMaxRetain = 1 << 20

var encPool = sync.Pool{New: func() any { return new(encBuf) }}

func (eb *encBuf) release() {
	if cap(eb.buf) > encBufMaxRetain {
		eb.buf = nil
	}
	encPool.Put(eb)
}

// appendRecord encodes one record of totalLen bytes, carrying the sequence
// number seq, onto buf.  It is the only record encoder.  The range data is
// copied, so it need only be stable for the duration of the call — the
// engine holds the owning region locks across the append.  Padding
// (alignment, an absorbed gap, the body of a wrap record) is zeroed: pooled
// bytes are stale, and records must be byte-reproducible.
func appendRecord(buf []byte, seq uint64, typ uint8, tid uint64, flags uint8, ranges []Range, totalLen int64) []byte {
	start := len(buf)
	buf = slices.Grow(buf, int(totalLen))[:start+int(totalLen)]
	rec := buf[start:]
	binary.BigEndian.PutUint32(rec[0:], recMagic)
	binary.BigEndian.PutUint32(rec[4:], uint32(totalLen))
	rec[8] = typ
	rec[9] = flags
	rec[10], rec[11] = 0, 0
	binary.BigEndian.PutUint32(rec[12:], uint32(len(ranges)))
	binary.BigEndian.PutUint64(rec[16:], seq)
	binary.BigEndian.PutUint64(rec[24:], tid)
	p := headerSize
	for _, r := range ranges {
		binary.BigEndian.PutUint64(rec[p:], r.Seg)
		binary.BigEndian.PutUint64(rec[p+8:], r.Off)
		binary.BigEndian.PutUint32(rec[p+16:], uint32(len(r.Data)))
		p += rangeHdrSize + copy(rec[p+rangeHdrSize:], r.Data)
	}
	trailer := rec[totalLen-trailerSize:]
	clear(rec[p : totalLen-trailerSize])
	binary.BigEndian.PutUint64(trailer[0:], seq)
	binary.BigEndian.PutUint32(trailer[8:], uint32(totalLen))
	binary.BigEndian.PutUint32(trailer[12:], crc32.ChecksumIEEE(rec[:totalLen-4]))
	return buf
}

// Force makes all appended records durable (fsync).  It is a no-op when
// nothing was appended since the last Force.
//
// The log mutex is NOT held across the fsync: the sequence number to cover
// is snapshotted under the lock, the device is synced unlocked, and the
// forced-through sequence number is advanced afterwards — only to the
// snapshot, never past it, so records appended while the fsync was in
// flight stay unforced (and the log stays dirty) until a later Force.
// This lets committers keep appending behind an in-flight group force.
// Concurrent Force calls are safe; each advances ForcedThrough to at least
// its own snapshot.
func (l *Log) Force() error {
	l.mu.Lock()
	if l.dev == nil {
		l.mu.Unlock()
		return ErrLogClosed
	}
	if !l.dirty {
		l.mu.Unlock()
		return nil
	}
	coverSeq := l.nextSeq - 1
	prevForced := l.forcedSeq
	dev := l.dev
	sync := !l.noSync
	if !sync {
		// The fsync is being skipped: remember that, so a later
		// SetNoSync(false) can re-dirty the log and the next Force issues
		// a real fsync covering these bytes.
		l.skippedSync = true
	}
	tr, met := l.tr, l.met
	l.mu.Unlock()
	start := tr.Now()
	t0 := time.Now()
	if sync {
		// Bracket the fsync with the force stall gate: a device that
		// wedges here is exactly what the engine's watchdog exists to
		// flag, and the hung goroutine cannot report itself.
		met.OpEnter(obs.StallForce)
		err := dev.Sync()
		met.OpExit(obs.StallForce)
		if err != nil {
			return fmt.Errorf("wal: force: %w", err)
		}
	}
	dur := time.Since(t0).Nanoseconds()
	l.mu.Lock()
	if coverSeq > l.forcedSeq {
		l.forcedSeq = coverSeq
	}
	if l.nextSeq-1 == coverSeq {
		// Nothing appended during the fsync window: the log is clean.
		l.dirty = false
	}
	l.stats.Forces++
	l.mu.Unlock()
	var batch uint64
	if coverSeq > prevForced {
		batch = coverSeq - prevForced
	}
	tr.Span(obs.EvLogForce, start, 0, batch, coverSeq)
	met.ObserveForce(dur, batch)
	return nil
}

// ForcedThrough returns the highest sequence number known durable: every
// record with Seq <= ForcedThrough() was covered by a completed Force.  A
// group-commit waiter whose record's sequence number is already covered can
// skip its own force.
func (l *Log) ForcedThrough() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forcedSeq
}

// LastSeq returns the sequence number of the most recent append (0 if the
// log has never held a record).  A group-commit leader polls it to detect
// committers still arriving for the batch.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// SetNoSync disables the physical fsyncs behind Force and SetHead.  All
// logging, optimization, and truncation logic is unaffected — only the
// permanence guarantee is forfeited.  Used by benchmark harnesses that
// measure log traffic, not durability.
//
// Re-enabling sync after forces were skipped marks the log dirty again, so
// the next Force issues a real fsync even if nothing new was appended:
// toggling NoSync around a commit can therefore never leave bytes that were
// reported forced without a physical sync ever covering them.
func (l *Log) SetNoSync(v bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !v && l.skippedSync {
		l.dirty = true
		l.skippedSync = false
	}
	l.noSync = v
}

// Scan runs the forward pass over an open log's live records from the one
// at area offset pos, which carries seq, to the tail: the head (Head), or a
// record an earlier Analysis located.  fn gets every window of records (see
// Window) and the analysis of what was passed comes back.  The log stays
// locked for the pass, so appends wait for it.
func (l *Log) Scan(pos int64, seq uint64, fn func(*Window) error) (an Analysis, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	err = l.scanLocked(pos, seq, &an, fn)
	return an, err
}

func (l *Log) scanLocked(pos int64, seq uint64, an *Analysis, fn func(*Window) error) error {
	if l.dev == nil {
		return ErrLogClosed
	}
	// The bytes from pos to the tail; the sequence number tells a full
	// log's head from its tail.
	live := l.used - (pos-l.head+l.areaSize)%l.areaSize
	if seq == l.nextSeq {
		live = 0
	}
	if seq < l.headSeq || seq > l.nextSeq || live < 0 {
		return fmt.Errorf("wal: Scan(%d, seq %d) does not start at a live record", pos, seq)
	}
	_, _, err := scan(l.dev, l.areaSize, pos, seq, live, an, fn)
	return err
}

// ScanForward visits live records oldest-first.  Wrap records are
// skipped; checkpoint records are delivered (with nil Ranges).
// fn must not retain the record or its range data beyond the call.
func (l *Log) ScanForward(fn func(*Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.scanLocked(l.head, l.headSeq, nil, func(w *Window) error {
		defer w.Release()
		for i := range w.Recs {
			if err := fn(&w.Recs[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// SetHead advances the head of the live region to pos, expecting seq there,
// and persists the new status block.  pos must be the start of a live
// record or the tail.  Freed space becomes available to Append immediately.
//
// The status write and its fsync run with l.mu released: an fsync under
// the log mutex would stall every concurrent Append and Force for a full
// disk flush, re-serializing the commit path behind truncation.  A head
// claim (headBusy) keeps concurrent head moves serialized — status-block
// generations must advance one at a time — without a mutex held across
// the sync.  Appends that interleave with the unlocked window only grow
// the live region at the tail, which a head move never touches, so the
// freed byte count computed under the lock stays exact and is applied as
// a delta when the lock is retaken.
func (l *Log) SetHead(pos int64, seq uint64) error {
	l.mu.Lock()
	if l.headCond == nil {
		l.headCond = sync.NewCond(&l.mu)
	}
	for l.headBusy {
		l.headCond.Wait()
	}
	if l.dev == nil {
		l.mu.Unlock()
		return ErrLogClosed
	}
	freed, err := l.headFreedLocked(pos, seq)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	l.headBusy = true
	dev, noSync := l.dev, l.noSync
	gen := l.gen + 1
	st := statusBlock{gen: gen, areaSize: l.areaSize, head: pos, headSeq: seq}
	l.mu.Unlock()

	werr := writeStatus(dev, int(gen%2), st)
	if werr == nil && !noSync {
		if err := dev.Sync(); err != nil {
			werr = fmt.Errorf("wal: sync status: %w", err)
		}
	}

	l.mu.Lock()
	l.headBusy = false
	l.headCond.Broadcast()
	if werr != nil {
		l.mu.Unlock()
		return werr
	}
	if l.dev == nil {
		// Closed while the status write was in flight; the durable state
		// is fine (head moves are always safe to persist), but there is
		// no live log to apply it to.
		l.mu.Unlock()
		return ErrLogClosed
	}
	l.gen = gen
	l.stats.Forces++
	l.head, l.headSeq = pos, seq
	l.used -= freed
	l.mu.Unlock()
	return nil
}

// headFreedLocked validates a head move to (pos, seq) and returns the
// byte count it frees.  Caller holds l.mu.
func (l *Log) headFreedLocked(pos int64, seq uint64) (int64, error) {
	freed := pos - l.head
	if freed < 0 {
		freed += l.areaSize
	}
	if freed == 0 && seq != l.headSeq {
		// pos == head is ambiguous when the log is completely full: the
		// sequence number distinguishes "free nothing" (seq == headSeq)
		// from "free everything" (seq == nextSeq, i.e. the tail).
		if seq == l.nextSeq && l.used == l.areaSize {
			freed = l.used
		} else {
			return 0, fmt.Errorf("wal: SetHead(%d, seq %d) does not match a live record", pos, seq)
		}
	}
	if freed > l.used {
		return 0, fmt.Errorf("wal: SetHead(%d) beyond tail", pos)
	}
	return freed, nil
}

// Head returns the area offset and expected sequence number of the oldest
// live record.
func (l *Log) Head() (int64, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head, l.headSeq
}

// Tail returns the append position and the sequence number the next record
// will get.
func (l *Log) Tail() (int64, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailPos(), l.nextSeq
}

// Used returns the number of live bytes in the record area.
func (l *Log) Used() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used
}

// AreaSize returns the record area capacity in bytes.
func (l *Log) AreaSize() int64 { return l.areaSize }

// Stats returns a snapshot of activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close releases the underlying device without forcing.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dev == nil {
		return nil
	}
	err := l.dev.Close()
	l.dev = nil
	return err
}
