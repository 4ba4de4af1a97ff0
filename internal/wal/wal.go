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
// direction; crash recovery walks it tail-to-head.
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
// both walks read the area in plain sequential chunks (areaReader).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"
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
	recPrep uint8 = 4 // cross-shard prepare: one shard's ranges of a 2PC commit
	recCmt  uint8 = 5 // cross-shard commit mark: global commit-ID, no ranges
)

// Exported record types, as reported in Record.Type.
const (
	RecTx         = recTx
	RecWrap       = recWrap
	RecCheckpoint = recCkpt
	RecPrepare    = recPrep
	RecCommit     = recCmt
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
	Prepares      uint64 // cross-shard prepare records appended
	CommitMarks   uint64 // cross-shard commit marks appended
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
	used, openScan := l.used, l.openScanNs
	l.mu.Unlock()
	m.SetLogLiveBytes(used)
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
		return nil, err
	}
	return l, nil
}

// OpenDevice opens a log on an arbitrary device (used by tests to inject
// faults).
func OpenDevice(dev Device) (*Log, error) {
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
		return nil, ErrNotLog
	}
	l := &Log{
		dev:      dev,
		areaSize: st.areaSize,
		head:     st.head,
		headSeq:  st.headSeq,
		gen:      st.gen,
	}
	t0 := time.Now()
	if err := l.findTail(); err != nil {
		return nil, err
	}
	l.openScanNs = time.Since(t0).Nanoseconds()
	// Everything discovered in the log is already on the device, so the
	// forced-through sequence number starts at the last live record.
	l.forcedSeq = l.nextSeq - 1
	return l, nil
}

// areaOff converts a record-area offset into a device offset.
func areaOff(pos int64) int64 { return 2*int64(mapping.PageSize) + pos }

// readChunk is the size of one sequential read of the record area.  Every
// read path (the tail scan at Open, both scan directions, recovery's
// analysis and decode passes) goes through an areaReader, so a pass over
// the log costs one positional read per MiB rather than two per record.
// A reader works up to it from minReadChunk, doubling per refill, so that
// opening or truncating a nearly empty log does not read a MiB of nothing.
const (
	readChunk    = 1 << 20
	minReadChunk = 4 << 10
)

// areaReader serves record bytes out of chunk-sized windows of the record
// area.  Records never straddle the area's end, so a window is a plain
// contiguous read clipped to the area; a walk that crosses the wrap simply
// misses and refills on the other side.  Decoded records alias the window
// they were read from, and the log's scans, whose callbacks may not keep
// range data, refill one buffer in place.  An areaReader is owned by one
// goroutine; the device's positional reads are what concurrent readers
// share.
type areaReader struct {
	dev      Device
	areaSize int64
	chunk    int64 // size of the last refill
	lo       int64 // area offset of win[0]
	win      []byte
}

// bytes returns the area bytes [pos, pos+n), which the caller has checked
// lie inside the area.  On a miss the new window starts at pos, or — for a
// walk toward the head — ends at pos+n.
func (r *areaReader) bytes(pos, n int64, backward bool) ([]byte, error) {
	if pos < r.lo || pos+n > r.lo+int64(len(r.win)) {
		r.chunk = min(max(2*r.chunk, minReadChunk), readChunk)
		lo, hi := pos, min(pos+max(n, r.chunk), r.areaSize)
		if backward {
			lo, hi = max(pos+n-max(n, r.chunk), 0), pos+n
		}
		win := r.win[:0]
		r.win = nil // no window while its buffer is being overwritten
		if int64(cap(win)) < hi-lo {
			win = make([]byte, hi-lo)
		}
		got, err := r.dev.ReadAt(win[:hi-lo], areaOff(lo))
		if int64(got) < pos+n-lo {
			// A window may run past the device's end (a truncated file);
			// only bytes the caller asked for must be there.
			return nil, fmt.Errorf("wal: read %d bytes at %d: %w", n, pos, err)
		}
		r.lo, r.win = lo, win[:got]
	}
	return r.win[pos-r.lo : pos-r.lo+n], nil
}

// next decodes into rec the record a forward walk finds at area offset pos.
// It reports false when the bytes there are not a valid next record (torn
// write or stale data), which ends a forward scan.
func (r *areaReader) next(rec *Record, pos int64, wantSeq uint64) (bool, error) {
	if r.areaSize-pos < minRecordSize {
		return false, nil // cannot even hold a header+trailer here
	}
	hdr, err := r.bytes(pos, headerSize, false)
	if err != nil {
		return false, err
	}
	// Only the extent is taken from the unvalidated header; decodeRecord
	// re-reads it, with every other field, once the CRC has checked out.
	totalLen := int64(binary.BigEndian.Uint32(hdr[4:]))
	if binary.BigEndian.Uint32(hdr[0:]) != recMagic || totalLen < minRecordSize || pos+totalLen > r.areaSize {
		return false, nil
	}
	buf, err := r.bytes(pos, totalLen, false)
	if err != nil {
		return false, err
	}
	return decodeRecord(rec, buf, pos, wantSeq), nil
}

// prev decodes into rec the record a backward walk finds ending at area
// offset end, located through its reverse displacement.
func (r *areaReader) prev(rec *Record, end int64, wantSeq uint64) error {
	trailer, err := r.bytes(end-trailerSize, trailerSize, true)
	if err != nil {
		return err
	}
	totalLen := int64(binary.BigEndian.Uint32(trailer[8:]))
	if totalLen < minRecordSize || totalLen > end {
		return fmt.Errorf("wal: bad reverse displacement %d at %d", totalLen, end)
	}
	buf, err := r.bytes(end-totalLen, totalLen, true)
	if err != nil {
		return err
	}
	if !decodeRecord(rec, buf, end-totalLen, wantSeq) {
		return fmt.Errorf("wal: live region corrupt at %d (backward, seq %d)", end-totalLen, wantSeq)
	}
	return nil
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
	case recWrap, recCmt:
		// A commit mark's global commit-ID rides in the TID header slot;
		// it carries no ranges — its presence is the commit point.
	case recCkpt:
		// The stable sequence number rides in the TID header slot.
		rec.CkptSeq, rec.TID = rec.TID, 0
	case recTx, recPrep:
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

// findTail scans forward from head to locate the end of the live region.
func (l *Log) findTail() error {
	rd := areaReader{dev: l.dev, areaSize: l.areaSize}
	pos := l.head
	seq := l.headSeq
	var used int64
	var rec Record
	for used < l.areaSize {
		ok, err := rd.next(&rec, pos, seq)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		used += rec.Len
		seq++
		pos += rec.Len
		if pos == l.areaSize {
			pos = 0
		}
	}
	l.used = used
	l.nextSeq = seq
	return nil
}

// tailPos returns the current append position.
func (l *Log) tailPos() int64 { return (l.head + l.used) % l.areaSize }

// Append writes one committed transaction's new-value records at the tail.
// The write reaches the OS but is not forced; call Force for durability.
// It returns the record's area position, its sequence number, and the total
// bytes consumed (including any wrap record).
func (l *Log) Append(tid uint64, flags uint8, ranges []Range) (pos int64, seq uint64, nbytes int64, err error) {
	return l.appendOne(recTx, tid, flags, ranges)
}

// AppendPrepare writes the prepare half of a cross-shard commit: this
// shard's modification ranges for transaction tid.  A prepare is inert
// until a commit mark carrying the same tid exists — recovery discards
// prepares whose tid is confirmed by no shard's commit mark.
func (l *Log) AppendPrepare(tid uint64, flags uint8, ranges []Range) (pos int64, seq uint64, nbytes int64, err error) {
	return l.appendOne(recPrep, tid, flags, ranges)
}

// AppendCommitMark writes the commit point of a cross-shard transaction:
// a record carrying the global commit-ID and no ranges.  The engine
// appends one to every participating shard after all prepares are
// durable, so any surviving prepare finds a commit mark in its own log
// or in a peer's.
func (l *Log) AppendCommitMark(tid uint64) (pos int64, seq uint64, nbytes int64, err error) {
	return l.appendOne(recCmt, tid, 0, nil)
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
	n, _, err = l.appendRecords(recTx, ents)
	return n, err
}

func (l *Log) appendOne(typ uint8, tid uint64, flags uint8, ranges []Range) (pos int64, seq uint64, nbytes int64, err error) {
	ent := [1]Entry{{TID: tid, Flags: flags, Ranges: ranges}}
	if _, nbytes, err = l.appendRecords(typ, ent[:]); err != nil {
		return 0, 0, 0, err
	}
	return ent[0].Pos, ent[0].Seq, nbytes, nil
}

// appendRecords is the locked append shared by the commit-path record
// types.
func (l *Log) appendRecords(typ uint8, ents []Entry) (n int, nbytes int64, err error) {
	l.mu.Lock()
	n, nbytes, err = l.appendLocked(typ, ents)
	used := l.used
	tr, met := l.tr, l.met
	l.mu.Unlock()
	if n > 0 {
		met.SetLogLiveBytes(used)
	}
	if tr != nil {
		for i := range ents[:n] {
			tr.Record(obs.EvLogAppend, ents[i].TID, uint64(ents[i].Len), ents[i].Seq)
		}
	}
	return n, nbytes, err
}

// AppendCheckpoint writes a checkpoint record carrying the stable sequence
// number: every record with Seq < stable is fully reflected in its segment,
// so a later recovery may end its backward scan once it passes stable.  The
// record is not forced; callers force it like any commit.  The pages it
// covers must be durable in their segments before this is called.
func (l *Log) AppendCheckpoint(stable uint64) (pos int64, seq uint64, err error) {
	ent := [1]Entry{{TID: stable}}
	l.mu.Lock()
	_, nbytes, err := l.appendLocked(recCkpt, ent[:])
	used := l.used
	tr, met := l.tr, l.met
	l.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	met.SetLogLiveBytes(used)
	tr.Record(obs.EvLogAppend, 0, uint64(nbytes), ent[0].Seq)
	return ent[0].Pos, ent[0].Seq, nil
}

// planLocked places a record carrying ranges behind used live bytes.  It
// returns the tail position at and one of two plans: gap > 0 — the record
// does not fit before the area's end, so a wrap record of gap bytes goes at
// at and the record itself, planned again, at 0 — or the record's length
// need, which absorbs a gap too small to hold even a wrap record so that
// the area end stays walkable.  It fails unless the record, and its wrap,
// fit in the free space.
func (l *Log) planLocked(used int64, ranges []Range) (at, need, gap int64, err error) {
	need = encodedLen(ranges)
	if need > l.areaSize {
		return 0, 0, 0, fmt.Errorf("%w: need %d, area %d", ErrTooBig, need, l.areaSize)
	}
	at = (l.head + used) % l.areaSize
	if room := l.areaSize - at; need > room {
		gap = room
	} else if rem := room - need; rem > 0 && rem < minRecordSize {
		need += rem
	}
	if used+gap+need > l.areaSize {
		return 0, 0, 0, fmt.Errorf("%w: need %d, free %d", ErrLogFull, gap+need, l.areaSize-used)
	}
	return at, need, gap, nil
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
			if at, add, gap, err = l.planLocked(l.used+int64(len(buf)), ents[i].Ranges); gap > 0 {
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
			switch typ {
			case recCkpt:
				l.stats.Checkpoints += uint64(i - n)
			case recPrep:
				l.stats.Prepares += uint64(i - n)
			case recCmt:
				l.stats.CommitMarks += uint64(i - n)
			default:
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

// ScanForward visits live records oldest-first.  Wrap records are
// skipped; checkpoint records are delivered (with nil Ranges).
// fn must not retain the record's range data beyond the call.
func (l *Log) ScanForward(fn func(*Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dev == nil {
		return ErrLogClosed
	}
	return l.scanForwardLocked(fn)
}

func (l *Log) scanForwardLocked(fn func(*Record) error) error {
	rd := areaReader{dev: l.dev, areaSize: l.areaSize}
	pos, seq := l.head, l.headSeq
	var seen int64
	for seen < l.used {
		rec := new(Record) // fn may keep the record, though not its range data
		ok, err := rd.next(rec, pos, seq)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("wal: live region corrupt at %d (seq %d)", pos, seq)
		}
		if rec.Type != recWrap {
			if err := fn(rec); err != nil {
				return err
			}
		}
		seen += rec.Len
		seq++
		pos += rec.Len
		if pos == l.areaSize {
			pos = 0
		}
	}
	return nil
}

// ScanBackward visits live records newest-first, walking the reverse
// displacements from the tail — the direction crash recovery reads the log
// (paper §5.1.2).  Wrap records are skipped; checkpoint records are
// delivered (with nil Ranges).  fn must not retain the record's range data
// beyond the call.
func (l *Log) ScanBackward(fn func(*Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dev == nil {
		return ErrLogClosed
	}
	rd := areaReader{dev: l.dev, areaSize: l.areaSize}
	pos := l.tailPos()
	seq := l.nextSeq
	var seen int64
	for seen < l.used {
		if pos == 0 {
			pos = l.areaSize
		}
		seq--
		rec := new(Record)
		if err := rd.prev(rec, pos, seq); err != nil {
			return err
		}
		if rec.Type != recWrap {
			if err := fn(rec); err != nil {
				return err
			}
		}
		seen += rec.Len
		pos = rec.Pos
	}
	return nil
}

// RecordRef locates one live record for later decoding by a Reader.
type RecordRef struct {
	Pos  int64  // area offset of the record's first byte
	Len  int64  // encoded size on disk
	Seq  uint64 // sequence number
	Type uint8  // record type (RecTx or RecPrepare from analysis)
	TID  uint64 // transaction / global commit ID from the header
}

// Analysis is the result of AnalyzeBackward: the records redo must
// consider, the commit marks seen, and the scan's bookkeeping.
type Analysis struct {
	// Refs are the transaction and prepare records, newest first.  A
	// prepare ref (Type == RecPrepare) must only be replayed when its
	// TID appears in some shard's Committed set.
	Refs []RecordRef
	// Committed holds the global commit-IDs of every commit mark in the
	// scanned suffix.  With sharded logs the caller unions the sets of
	// all shards before filtering prepares.
	Committed []uint64
	// Stable is the newest checkpoint's stable sequence number (0 when
	// no checkpoint bounds the scan).
	Stable uint64
	// Scanned is the log bytes visited by the walk.
	Scanned int64
}

// AnalyzeBackward is recovery's analysis pass: it walks the live region
// tail-to-head and collects references (newest first) to the transaction
// and prepare records redo must consider, plus the commit marks that decide
// the prepares' fate.  The walk ends early at the newest checkpoint
// record's stable sequence number: every record with Seq < stable is
// already reflected in its segment.  The refs are decoded later — possibly
// concurrently, one Reader per worker — with ReadRecords.
func (l *Log) AnalyzeBackward() (Analysis, error) {
	var an Analysis
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dev == nil {
		return an, ErrLogClosed
	}
	rd := areaReader{dev: l.dev, areaSize: l.areaSize}
	pos := l.tailPos()
	seq := l.nextSeq
	// Every live record has its own sequence number, so their count bounds
	// the refs: sized once, the list is not regrown and recopied all along
	// the walk.
	an.Refs = make([]RecordRef, 0, seq-l.headSeq)
	var rec Record
	for an.Scanned < l.used {
		if an.Stable != 0 && seq-1 < an.Stable {
			break // everything older is reflected in the segments
		}
		if pos == 0 {
			pos = l.areaSize
		}
		seq--
		if err := rd.prev(&rec, pos, seq); err != nil {
			return an, err
		}
		an.Scanned += rec.Len
		pos = rec.Pos
		switch rec.Type {
		case recTx, recPrep:
			an.Refs = append(an.Refs, RecordRef{Pos: rec.Pos, Len: rec.Len, Seq: seq, Type: rec.Type, TID: rec.TID})
		case recCmt:
			an.Committed = append(an.Committed, rec.TID)
		case recCkpt:
			if an.Stable == 0 {
				// Newest checkpoint wins; older ones carry smaller
				// stable values and are subsumed.
				an.Stable = rec.CkptSeq
			}
		}
	}
	return an, nil
}

// Reader decodes the records AnalyzeBackward located, a batch at a time.
// Each recovery worker owns one; Readers of one log share nothing but the
// device's positional reads.
type Reader struct {
	dev      Device
	areaSize int64
	wins     [][]byte // windows the last batch's records alias; the next batch reuses them
}

// NewReader returns a Reader over the log's device.
func (l *Log) NewReader() (*Reader, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dev == nil {
		return nil, ErrLogClosed
	}
	return &Reader{dev: l.dev, areaSize: l.areaSize}, nil
}

// ReadRecords decodes and fully validates the records refs point at into
// recs[:len(refs)], reusing their range storage.  refs come in the order
// analysis produced them (newest first): one positional read ends with a
// record and reaches down over the refs that follow it for as long as they
// fit in readChunk bytes, so a batch costs one read per chunk and reads
// nothing below its last record.  The records' range data aliases the
// reader's windows and stays valid until the next call, which overwrites
// them: a pass over a long log holds one batch, not the log.
func (r *Reader) ReadRecords(refs []RecordRef, recs []Record) error {
	var win []byte
	var lo int64
	nwin := 0
	for i, ref := range refs {
		if ref.Pos < 0 || ref.Len < minRecordSize || ref.Pos+ref.Len > r.areaSize {
			return fmt.Errorf("wal: record ref [%d,+%d) outside the log area", ref.Pos, ref.Len)
		}
		if ref.Pos < lo || ref.Pos+ref.Len > lo+int64(len(win)) {
			hi := ref.Pos + ref.Len
			lo = ref.Pos
			for _, nx := range refs[i+1:] {
				if nx.Pos < 0 || nx.Pos >= lo || hi-nx.Pos > readChunk {
					break // a bad ref, the far side of the wrap, or a full chunk
				}
				lo = nx.Pos
			}
			if nwin == len(r.wins) {
				r.wins = append(r.wins, nil)
			}
			if win = r.wins[nwin]; int64(cap(win)) < hi-lo {
				win = make([]byte, max(hi-lo, readChunk))
			}
			win = win[:hi-lo]
			r.wins[nwin] = win
			nwin++
			if got, err := r.dev.ReadAt(win, areaOff(lo)); int64(got) < hi-lo {
				return fmt.Errorf("wal: read %d bytes at %d: %w", hi-lo, lo, err)
			}
		}
		if !decodeRecord(&recs[i], win[ref.Pos-lo:ref.Pos-lo+ref.Len], ref.Pos, ref.Seq) {
			return fmt.Errorf("wal: record at %d (seq %d) failed validation", ref.Pos, ref.Seq)
		}
	}
	return nil
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
	used := l.used
	met := l.met
	l.mu.Unlock()
	met.SetLogLiveBytes(used)
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
