package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// appendRetiredCheckpoint appends a checkpoint record as logs written before
// checkpoints moved the head carried them: type 3, the stable sequence number
// in the TID slot, no ranges.  It appends the empty transaction record with
// the same header and rewrites its type, so nothing but this helper writes
// the type.
func (l *Log) appendRetiredCheckpoint(stable uint64) (pos int64, seq uint64, err error) {
	if pos, seq, _, err = l.Append(stable, 0, nil); err != nil {
		return 0, 0, err
	}
	hdr := make([]byte, headerSize)
	if _, err := l.dev.ReadAt(hdr, areaOff(pos)); err != nil {
		return 0, 0, err
	}
	rec := make([]byte, binary.BigEndian.Uint32(hdr[4:])) // padding included
	if _, err := l.dev.ReadAt(rec, areaOff(pos)); err != nil {
		return 0, 0, err
	}
	rec[8] = recRetired
	binary.BigEndian.PutUint32(rec[len(rec)-4:], crc32.ChecksumIEEE(rec[:len(rec)-4]))
	_, err = l.dev.WriteAt(rec, areaOff(pos))
	return pos, seq, err
}
