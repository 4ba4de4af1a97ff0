// Package wal implements RVM's write-ahead log.
//
// RVM uses a no-undo/redo value logging strategy (paper §5.1.1): because
// uncommitted changes are never reflected to an external data segment, only
// the new-value records of committed transactions are written to the log.
// One log record holds an entire committed transaction, or a whole spool
// drain of them — a 12-byte header, its modification ranges (RangeLen), zero
// padding to a multiple of 8 and a 4-byte CRC — so a record is the atomic
// unit of commitment.  The header's totalLen is the forward displacement of
// the paper's Figure 5; crash recovery reads the log head-to-tail, once
// (scan), so no record repeats it as a reverse displacement.  Nor does a
// record store its sequence number: the CRC starts from it, so a record
// checks out only where the scan expects that number, and a record left from
// an earlier lap of the area reads as the tail.
//
// On-disk layout:
//
//	offset 0:          status block, copy A (one page)
//	offset PageSize:   status block, copy B (one page)
//	offset 2*PageSize: record area (circular)
//
// The status block records the head of the live region and the sequence
// number expected there.  The tail is never persisted on the commit path:
// Open rediscovers it by scanning forward from the head while records check
// out under consecutive sequence numbers.  This keeps a committing
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
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/mapping"
)

const (
	// statusMagic identifies a log status block.
	statusMagic = 0x52564c53 // "RVLS"
	// FormatVersion is the on-disk format version (DESIGN.md §16).  Version
	// 2 framed a record in 40 bytes; version 1 also had 20-byte range headers.
	FormatVersion = 3

	// A record is a header — totalLen u32, the kind (type in bits 0-1, flags
	// in bits 2-3), three zero check bytes, tid u32 — its ranges, padding and
	// a trailer, the CRC-32C of every byte before it seeded by the sequence
	// number (crcSeed).  checkMask picks out of a header's first 8 bytes the
	// bits that must be zero: the kind's upper four and the check bytes.
	headerSize    = 12
	trailerSize   = 4
	minRecordSize = headerSize + trailerSize // a wrap record's size
	shortHdr      = 8                        // a range header (RangeLen); all zeros ends the ranges
	wideHdr       = 22                       // a wide one, behind the len 0xFFFF
	checkMask     = 0xF0FFFFFF

	statusSize = 4 + 4 + 8 + 8 + 8 + 8 + 4 // magic, ver, gen, areaSize, head, headSeq, crc
)

// Record types.  RecTx is the type of every record a scan delivers.
const (
	recTx   uint8 = 1 // a committed transaction's new-value records
	recWrap uint8 = 2 // padding to the end of the record area
	RecTx         = recTx
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
	// ErrLogVersion is returned by Open for a log of a version it cannot upgrade.
	ErrLogVersion = errors.New("wal: unsupported log format version")
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

// Record is a decoded transaction record.
type Record struct {
	Pos    int64 // record-area offset of the record's first byte
	Len    int64 // encoded size on disk, header through trailer
	Seq    uint64
	TID    uint64 // the low 32 bits of the TID appended
	Type   uint8
	Flags  uint8
	Ranges []Range
}

// Stats counts log activity since Open.
type Stats struct {
	Appends       uint64 // transaction records appended
	BytesAppended uint64 // bytes of records appended (incl. wrap/padding)
	Forces        uint64 // fsyncs issued
	Wraps         uint64 // wrap records written
}

// Log is an open write-ahead log.  All methods are safe for concurrent use.
// It observes nothing: the engine above it times and traces what it asks of
// the log.
type Log struct {
	mu       sync.Mutex
	dev      Device
	areaSize int64

	// used, nextSeq and forcedSeq are written under mu and read without it
	// by Used, LastSeq and ForcedThrough, which a commit polls.
	head      int64         // area offset of oldest live byte
	headSeq   uint64        // seqno expected at head
	used      atomic.Int64  // live bytes (head..tail, circular)
	nextSeq   atomic.Uint64 // seqno of the next record to append
	gen       uint64        // status block generation
	dirty     bool          // appended bytes not yet forced
	forcedSeq atomic.Uint64 // highest seqno covered by a completed Force

	// Head-move claim: SetHead persists the status block with l.mu
	// released (fsync under the log mutex would stall the append path),
	// and the claim serializes concurrent head moves instead.
	headBusy bool
	headCond *sync.Cond // signalled when a head move finishes

	stats Stats

	// enc is the buffer appendLocked encodes into, kept as grown for the
	// next append unless it grew past encMaxRetain.
	enc []byte
}

// EncodedLen returns the encoded log size of a transaction record carrying
// ranges, padding included and any wrap record excluded.  A range of no bytes
// is not encoded.
func EncodedLen(ranges []Range) int64 {
	n := int64(minRecordSize)
	for _, r := range ranges {
		if len(r.Data) > 0 {
			n += RangeLen(r.Seg, r.Off, int64(len(r.Data)))
		}
	}
	return (n + 7) &^ 7 // records are 8-byte aligned
}

// RangeLen is the log cost of a range of n bytes at off in segment seg: its
// data and its header, 8 bytes (len u16, seg u16, off u32) when the fields fit
// them, else 22 (the len 0xFFFF, then seg u64, off u64, len u32).
func RangeLen(seg, off uint64, n int64) int64 {
	if n < math.MaxUint16 && seg <= math.MaxUint16 && off <= math.MaxUint32 {
		return shortHdr + n
	}
	return wideHdr + n
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
	if err = f.Truncate(2*int64(mapping.PageSize) + areaSize); err == nil {
		err = writeStatuses(f, statusBlock{gen: 1, areaSize: areaSize, headSeq: 1})
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("wal: initialize %s: %w", path, err)
	}
	return nil
}

type statusBlock struct {
	version  uint32 // as read; writeStatus writes FormatVersion
	gen      uint64
	areaSize int64
	head     int64
	headSeq  uint64
}

func writeStatus(dev Device, slot int, st statusBlock) error {
	b := make([]byte, statusSize)
	binary.BigEndian.PutUint32(b[0:], statusMagic)
	binary.BigEndian.PutUint32(b[4:], FormatVersion)
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

// writeStatuses writes st to both slots and syncs them.
func writeStatuses(dev Device, st statusBlock) error {
	for slot := range 2 {
		if err := writeStatus(dev, slot, st); err != nil {
			return err
		}
	}
	return dev.Sync()
}

func readStatus(dev Device, slot int) (statusBlock, bool) {
	b := make([]byte, statusSize)
	off := int64(slot) * int64(mapping.PageSize)
	if _, err := dev.ReadAt(b, off); err != nil {
		return statusBlock{}, false
	}
	if binary.BigEndian.Uint32(b[0:]) != statusMagic ||
		crc32.ChecksumIEEE(b[:40]) != binary.BigEndian.Uint32(b[40:]) {
		return statusBlock{}, false
	}
	return statusBlock{
		version:  binary.BigEndian.Uint32(b[4:]),
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
	return OpenScan(dev, nil)
}

// OpenScan is OpenDevice for a caller that wants what the tail-finding scan
// reads, so that a restart reads its log once: the valid records go to fn a
// window at a time as the scan passes them (see scan).
func OpenScan(dev Device, fn func([]Record) error) (*Log, error) {
	st, ok := readStatus(dev, 0)
	if b, okB := readStatus(dev, 1); okB && (!ok || b.gen > st.gen) {
		st, ok = b, true
	}
	if !ok {
		return nil, ErrNotLog
	}
	if st.version != FormatVersion {
		if err := upgrade(dev, &st); err != nil {
			return nil, err
		}
	}
	l := &Log{dev: dev, areaSize: st.areaSize, head: st.head, headSeq: st.headSeq, gen: st.gen}
	l.headCond = sync.NewCond(&l.mu)
	used, next, err := scan(dev, l.areaSize, l.head, l.headSeq, -1, fn)
	if err != nil {
		return nil, err
	}
	l.used.Store(used)
	l.nextSeq.Store(next)
	// Everything discovered in the log is already on the device, so the
	// forced-through sequence number starts at the last live record.
	l.forcedSeq.Store(next - 1)
	return l, nil
}

// upgrade rewrites and syncs both status blocks of a version-1 or version-2
// log as this version's when nothing validates at its head by the framing
// those versions share (legacyFramed).  Nothing reads their records: a log
// holding any is refused unchanged.
func upgrade(dev Device, st *statusBlock) error {
	buf := make([]byte, legacyMin)
	_, err := dev.ReadAt(buf, areaOff(st.head))
	if n := int64(binary.BigEndian.Uint32(buf[4:])); err == nil && n >= legacyMin && n <= st.areaSize-st.head {
		buf = make([]byte, n)
		_, err = dev.ReadAt(buf, areaOff(st.head))
	}
	if err != nil {
		return fmt.Errorf("wal: read the head of a version-%d log: %w", st.version, err)
	}
	if (st.version != 1 && st.version != 2) || legacyFramed(buf, st.headSeq) {
		return fmt.Errorf("%w: the log is version %d, version %d wanted; only a version-1 or version-2 log with no live record upgrades", ErrLogVersion, st.version, FormatVersion)
	}
	st.gen++
	return writeStatuses(dev, *st)
}

const legacyMin = 40 // the smallest record of versions 1 and 2

// legacyFramed reports whether buf is one whole version-1 or version-2 record
// carrying seq by the framing those versions share: the magic "RVLG",
// totalLen in the header and in the trailer's first half, the sequence
// number at byte 16, and the IEEE CRC of the rest in the last 4 bytes.
func legacyFramed(buf []byte, seq uint64) bool {
	n := int64(len(buf))
	return n >= legacyMin && n%8 == 0 && binary.BigEndian.Uint32(buf[0:]) == 0x52564c47 &&
		int64(binary.BigEndian.Uint32(buf[4:])) == n && int64(binary.BigEndian.Uint32(buf[n-8:])) == n &&
		binary.BigEndian.Uint64(buf[16:]) == seq && crc32.ChecksumIEEE(buf[:n-4]) == binary.BigEndian.Uint32(buf[n-4:])
}

// areaOff converts a record-area offset into a device offset.
func areaOff(pos int64) int64 { return 2*int64(mapping.PageSize) + pos }

// A scan reads the record area in windows of scanChunk bytes, so a pass
// over the log costs one positional read per window rather than two per
// record; it works up to that size from minReadChunk, doubling per window,
// so that opening or truncating a nearly empty log reads next to nothing.
// Every consumer is done with a window's records when it returns, so one
// buffer holds each window in turn; 128 KiB stays in a processor's
// second-level cache from the read through the checksum to the consumer
// (EXPERIMENTS.md, "one pass at restart").
const (
	scanChunk    = 128 << 10
	minReadChunk = 4 << 10
)

// scan is the one forward pass over a log's records.  From the record at
// area offset pos, expected to carry seq, it reads the area a window at a
// time, validates and decodes each record once, and hands each window's
// transaction records, oldest first, to fn (unless nil).  They and their
// range data, which aliases the window, are valid until fn returns: the next
// window is read into the same buffer.  With live < 0 the pass ends at the
// first bytes that are not the next record — a torn write or stale data —
// which is how Open finds the tail; otherwise exactly live bytes must hold
// valid records.  It returns the bytes walked and the sequence number after
// the last record.
func scan(dev Device, areaSize, pos int64, seq uint64, live int64, fn func([]Record) error) (used int64, next uint64, err error) {
	toTail := live >= 0
	if !toTail {
		live = areaSize
	}
	var win []byte    // the window buffer, sized once for every window
	var recs []Record // a window's records; each slot keeps its range storage
	var shape int     // ranges in the last record
	var chunk int64
	need := int64(minRecordSize) // bytes the next window must hold to make progress
	for valid := true; valid && used < live; {
		limit := min(areaSize-pos, live-used)
		if limit < need {
			valid = false // not even a wrap record fits before the area's end
			break
		}
		chunk = min(max(2*chunk, minReadChunk), scanChunk)
		n := min(max(need, chunk), limit)
		if int64(cap(win)) < n {
			// Large enough for every later window, unless a record is larger.
			win = make([]byte, max(n, min(scanChunk, live-used)))
		}
		got, rerr := dev.ReadAt(win[:n], areaOff(pos))
		if int64(got) < need {
			// A window may run past the device's end (a truncated file);
			// only the bytes the next record needs must be there.
			return used, seq, fmt.Errorf("wal: read %d bytes at %d: %w", need, pos, rerr)
		}
		buf := win[:got]
		recs, need = recs[:0], minRecordSize
		for used < live && len(buf) >= minRecordSize {
			// Only the extent is taken from the unvalidated header, once
			// its check bits are zero; decodeRecord checks it again, with
			// the CRC.
			h := binary.BigEndian.Uint64(buf)
			totalLen := int64(h >> 32)
			if h&checkMask != 0 || totalLen < minRecordSize || totalLen > min(areaSize-pos, live-used) {
				valid = false
				break
			}
			if totalLen > int64(len(buf)) {
				need = totalLen // straddles the window's end: the next one starts here
				break
			}
			recs = slices.Grow(recs, 1)[:len(recs)+1] // reuse the slot's range storage
			rec := &recs[len(recs)-1]
			if cap(rec.Ranges) == 0 { // a new slot: a log's records run in shapes
				rec.Ranges = make([]Range, 0, shape)
			}
			if valid = decodeRecord(rec, buf[:totalLen], pos, seq); !valid {
				recs = recs[:len(recs)-1]
				break
			}
			if rec.Type != recTx {
				recs = recs[:len(recs)-1] // a wrap record
			}
			used, seq, buf, shape = used+totalLen, seq+1, buf[totalLen:], len(rec.Ranges)
			if pos += totalLen; pos == areaSize {
				pos = 0
			}
		}
		if len(recs) > 0 && fn != nil {
			if err := fn(recs); err != nil {
				return used, seq, err
			}
		}
	}
	if toTail && used < live {
		return used, seq, fmt.Errorf("wal: live region corrupt at %d (seq %d)", pos, seq)
	}
	return used, seq, nil
}

// decodeRecord validates buf as one whole record at area offset pos, carrying
// the sequence number seq, and decodes it into rec, reusing rec.Ranges'
// storage; it reports false, with rec in an unspecified state, when buf is
// not a valid record.  Nothing is trusted before the CRC matches, and every
// field is parsed from the checked bytes.  A CRC is no defence against a
// hostile log (an attacker recomputes it), so each length is also bounded by
// the record's own extent before anything is sized by it — a range takes at
// least 9 bytes, so a body of n bytes yields fewer than n/8 ranges — and a
// range may not end past MaxInt64, the end of a segment's address space.
// Range data aliases buf.
func decodeRecord(rec *Record, buf []byte, pos int64, seq uint64) bool {
	totalLen := int64(len(buf))
	if totalLen < minRecordSize || totalLen%8 != 0 {
		return false
	}
	hdr := binary.BigEndian.Uint64(buf)
	if hdr&checkMask != 0 || int64(hdr>>32) != totalLen ||
		crc32.Update(crcSeed(seq), castagnoli, buf[:totalLen-trailerSize]) != binary.BigEndian.Uint32(buf[totalLen-trailerSize:]) {
		return false
	}
	kind := uint8(hdr >> 24)
	*rec = Record{Pos: pos, Len: totalLen, Seq: seq, TID: uint64(binary.BigEndian.Uint32(buf[8:])),
		Type: kind & 3, Flags: kind >> 2, Ranges: rec.Ranges[:0]}
	if rec.Type != recTx {
		return rec.Type == recWrap
	}
	// The ranges run to an all-zero header or to fewer than a header's bytes
	// before the CRC; what follows them is padding.
	for body := buf[headerSize : totalLen-trailerSize]; len(body) >= shortHdr; {
		v := binary.BigEndian.Uint64(body)
		if v == 0 {
			break
		}
		h, n, seg, off := int64(shortHdr), int64(v>>48), v>>32&0xFFFF, v&0xFFFFFFFF
		if n == math.MaxUint16 && len(body) >= wideHdr {
			h, n, seg, off = wideHdr, int64(binary.BigEndian.Uint32(body[18:])), binary.BigEndian.Uint64(body[2:]), binary.BigEndian.Uint64(body[10:])
		}
		if n == 0 || n > int64(len(body))-h || off > math.MaxInt64-uint64(n) {
			return false // empty (never encoded), past the record (as is a cut-short wide header's 0xFFFF), or past MaxInt64
		}
		rec.Ranges = append(rec.Ranges, Range{Seg: seg, Off: off, Data: body[h : h+n : h+n]})
		body = body[h+n:]
	}
	return true
}

// castagnoli is the CRC-32C table; crc32 runs it on the processor's
// instruction where there is one.  A record's CRC starts from its sequence
// number folded to 32 bits (crcSeed), so it checks out under no other.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crcSeed(seq uint64) uint32 { return uint32(seq ^ seq>>32) }

// tailPos returns the current append position.
func (l *Log) tailPos() int64 { return (l.head + l.used.Load()) % l.areaSize }

// Append writes one committed transaction's new-value records at the tail.
// The write reaches the OS but is not forced; call Force for durability.
// It returns the record's area position, its sequence number, and the total
// bytes consumed (including any wrap record).
func (l *Log) Append(tid uint64, flags uint8, ranges []Range) (pos int64, seq uint64, nbytes int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(tid, flags, ranges)
}

// Fits reports whether a record of need encoded bytes (EncodedLen) could be
// appended now: whether the free space holds it together with the wrap
// record or the padding its place at the tail calls for.  Free bytes alone do
// not say, because the space before the area's end may be too short for it.
func (l *Log) Fits(need int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _, _, err := l.planLocked(l.used.Load(), need)
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

// encMaxRetain bounds the encoding buffer the log keeps between appends:
// it holds a spool drain of the engine's default limit (1 MiB), twice over,
// so the drains of a busy no-flush workload reuse one buffer.
const encMaxRetain = 4 << 20

// appendLocked appends one transaction record, behind a wrap record when the
// record does not fit before the area's end.  Only once the device has taken
// every byte are the records published: used, nextSeq and the counters never
// describe bytes the device may not hold, so a caller that retries after a
// failed write plans the same record at the same place.  It returns the
// record's position and sequence number and the bytes it took, the wrap
// record's included.
func (l *Log) appendLocked(tid uint64, flags uint8, ranges []Range) (pos int64, seq uint64, nbytes int64, err error) {
	if l.dev == nil {
		return 0, 0, 0, ErrLogClosed
	}
	if flags > 3 {
		return 0, 0, 0, fmt.Errorf("wal: flags %#x do not fit a record's two flag bits", flags)
	}
	need := EncodedLen(ranges)
	pos, add, gap, err := l.planLocked(l.used.Load(), need)
	if err != nil {
		return 0, 0, 0, err
	}
	seq = l.nextSeq.Load()
	if gap > 0 {
		if err := l.writeLocked(appendRecord(l.enc, seq, recWrap, 0, 0, nil, gap), pos); err != nil {
			return 0, 0, 0, err
		}
		seq++
		if pos, add, _, err = l.planLocked(l.used.Load()+gap, need); err != nil {
			return 0, 0, 0, err
		}
	}
	if err := l.writeLocked(appendRecord(l.enc, seq, recTx, tid, flags, ranges, add), pos); err != nil {
		return 0, 0, 0, err
	}
	l.used.Add(gap + add)
	l.nextSeq.Store(seq + 1)
	l.dirty = true
	if gap > 0 {
		l.stats.Wraps++
	}
	l.stats.BytesAppended += uint64(gap + add)
	l.stats.Appends++
	return pos, seq, gap + add, nil
}

// writeLocked writes the encoded buf at area offset pos, keeping buf as the
// next append's encoding buffer unless it grew past encMaxRetain.
func (l *Log) writeLocked(buf []byte, pos int64) error {
	if l.enc = buf; cap(buf) > encMaxRetain {
		l.enc = nil // a one-off giant record does not pin its buffer
	}
	if _, err := l.dev.WriteAt(buf, areaOff(pos)); err != nil {
		return fmt.Errorf("wal: append at %d: %w", pos, err)
	}
	return nil
}

// appendRecord encodes one record of totalLen bytes, carrying the sequence
// number seq, into buf's storage, grown as needed.  It is the only record
// encoder.  The range data is
// copied, so it need only be stable for the duration of the call — the
// engine holds the owning region locks across the append.  A range of no
// bytes is left out, so no range header is all zeros.  Padding (alignment,
// an absorbed gap, the body of a wrap record) is zeroed: reused bytes are
// stale, and records must be byte-reproducible.
func appendRecord(buf []byte, seq uint64, typ uint8, tid uint64, flags uint8, ranges []Range, totalLen int64) []byte {
	rec := slices.Grow(buf[:0], int(totalLen))[:totalLen]
	binary.BigEndian.PutUint64(rec[0:], uint64(totalLen)<<32|uint64(typ|flags<<2)<<24)
	binary.BigEndian.PutUint32(rec[8:], uint32(tid))
	p := headerSize
	for _, r := range ranges {
		n := int64(len(r.Data))
		h := RangeLen(r.Seg, r.Off, n) - n
		if n == 0 {
			continue
		} else if h == shortHdr {
			binary.BigEndian.PutUint64(rec[p:], uint64(n)<<48|r.Seg<<32|r.Off)
		} else {
			binary.BigEndian.PutUint16(rec[p:], math.MaxUint16)
			binary.BigEndian.PutUint64(rec[p+2:], r.Seg)
			binary.BigEndian.PutUint64(rec[p+10:], r.Off)
			binary.BigEndian.PutUint32(rec[p+18:], uint32(n))
		}
		p += int(h) + copy(rec[p+int(h):], r.Data)
	}
	clear(rec[p : totalLen-trailerSize])
	binary.BigEndian.PutUint32(rec[totalLen-trailerSize:], crc32.Update(crcSeed(seq), castagnoli, rec[:totalLen-trailerSize]))
	return rec
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
	_, err := l.ForceBatch()
	return err
}

// ForceBatch is Force reporting what its own call synced: the records its
// snapshot covered that no force had made durable when it was taken, 0 when
// the log was clean and nothing was synced.  A dirty log always holds such a
// record, so a sync always reports at least one.
func (l *Log) ForceBatch() (uint64, error) {
	l.mu.Lock()
	if l.dev == nil {
		l.mu.Unlock()
		return 0, ErrLogClosed
	}
	if !l.dirty {
		l.mu.Unlock()
		return 0, nil
	}
	coverSeq := l.nextSeq.Load() - 1
	batch := coverSeq - l.forcedSeq.Load()
	dev := l.dev
	l.mu.Unlock()
	err := dev.Sync()
	if err != nil {
		return 0, fmt.Errorf("wal: force: %w", err)
	}
	l.mu.Lock()
	if coverSeq > l.forcedSeq.Load() {
		l.forcedSeq.Store(coverSeq)
	}
	if l.nextSeq.Load()-1 == coverSeq {
		// Nothing appended during the fsync window: the log is clean.
		l.dirty = false
	}
	l.stats.Forces++
	l.mu.Unlock()
	return batch, nil
}

// ForcedThrough returns the highest sequence number known durable: every
// record with Seq <= ForcedThrough() was covered by a completed Force.  A
// group-commit waiter whose record's sequence number is already covered can
// skip its own force.  It takes no lock.
func (l *Log) ForcedThrough() uint64 { return l.forcedSeq.Load() }

// LastSeq returns the sequence number of the most recent append (0 if the
// log has never held a record).  A group-commit leader polls it to detect
// committers still arriving for the batch.  It takes no lock.
func (l *Log) LastSeq() uint64 { return l.nextSeq.Load() - 1 }

// Scan runs the forward pass over an open log's live records from the one
// at area offset pos, which carries seq, to the tail: from the head (Head),
// or from a record an earlier scan delivered.  fn gets the records a window
// at a time, and may keep none of them past its return (see scan).  The log
// stays locked for the pass, so appends wait for it.
func (l *Log) Scan(pos int64, seq uint64, fn func([]Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.scanLocked(pos, seq, fn)
}

func (l *Log) scanLocked(pos int64, seq uint64, fn func([]Record) error) error {
	if l.dev == nil {
		return ErrLogClosed
	}
	// The bytes from pos to the tail; the sequence number tells a full
	// log's head from its tail.
	live := l.used.Load() - (pos-l.head+l.areaSize)%l.areaSize
	next := l.nextSeq.Load()
	if seq == next {
		live = 0
	}
	if seq < l.headSeq || seq > next || live < 0 {
		return fmt.Errorf("wal: Scan(%d, seq %d) does not start at a live record", pos, seq)
	}
	_, _, err := scan(l.dev, l.areaSize, pos, seq, live, fn)
	return err
}

// ScanForward visits live transaction records oldest-first.  fn must not
// retain the record or its range data beyond the call.
func (l *Log) ScanForward(fn func(*Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.scanLocked(l.head, l.headSeq, func(recs []Record) error {
		for i := range recs {
			if err := fn(&recs[i]); err != nil {
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
	dev := l.dev
	gen := l.gen + 1
	st := statusBlock{gen: gen, areaSize: l.areaSize, head: pos, headSeq: seq}
	l.mu.Unlock()

	werr := writeStatus(dev, int(gen%2), st)
	if werr == nil {
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
	l.used.Add(-freed)
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
		if seq == l.nextSeq.Load() && l.used.Load() == l.areaSize {
			freed = l.areaSize
		} else {
			return 0, fmt.Errorf("wal: SetHead(%d, seq %d) does not match a live record", pos, seq)
		}
	}
	if freed > l.used.Load() {
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
	return l.tailPos(), l.nextSeq.Load()
}

// Used returns the number of live bytes in the record area.  It takes no
// lock: a commit reads it to decide on a truncation, and for a no-flush
// commit that would be the only time it locked the log.
func (l *Log) Used() int64 { return l.used.Load() }

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
