package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/rvm-go/rvm/internal/mapping"
)

// TestRecordFraming pins the framing's cost and round-trips both range
// header forms: a TPC-A transaction (paper §7.1.1: the account and audit
// records and two balances, in one segment) takes exactly 256 bytes, 16 of
// them the frame, and one record mixing short headers with wide ones — a
// segment past 2^16, an offset past 2^32, a length of 0xFFFF and one of 64
// KiB — reads back as appended, from the scan of a reopen and from Scan.
func TestRecordFraming(t *testing.T) {
	tpca := []Range{mkRange(1, 4096, 'a', 128), mkRange(1, 65536, 'h', 64), mkRange(1, 8, 'b', 8), mkRange(1, 16, 'c', 8)}
	l, path := newLog(t, 1<<18)
	if _, _, n, err := l.Append(1, 0, tpca); err != nil || n != 256 || n != EncodedLen(tpca) {
		t.Fatalf("a TPC-A record took %d bytes (EncodedLen %d, err %v), want 256", n, EncodedLen(tpca), err)
	}
	for _, c := range []struct {
		seg, off uint64
		n, want  int64
	}{
		{math.MaxUint16, math.MaxUint32, 0xFFFE, 8}, {math.MaxUint16 + 1, 0, 1, 22},
		{1, math.MaxUint32 + 1, 1, 22}, {1, 0, 0xFFFF, 22},
	} {
		if got := RangeLen(c.seg, c.off, c.n) - c.n; got != c.want {
			t.Errorf("RangeLen(%d, %d, %d) has a %d-byte header, want %d", c.seg, c.off, c.n, got, c.want)
		}
	}
	mixed := []Range{
		mkRange(2, 96, 's', 40),
		mkRange(1<<16, 0, 'g', 8),
		mkRange(math.MaxUint16, math.MaxUint32, 'm', 3),
		mkRange(3, 1<<32, 'o', 16),
		mkRange(4, 0, 'l', 0xFFFF),
		mkRange(5, 1<<20, 'k', 64<<10),
		mkRange(math.MaxUint64, math.MaxInt64-1, 'e', 1),
		mkRange(6, 0, 't', 5),
	}
	pos, seq, n, err := l.Append(2, 3, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	want := &Record{Pos: pos, Len: n, Seq: seq, TID: 2, Type: RecTx, Flags: 3, Ranges: mixed}
	if got := scanFrom(t, l, pos, seq); len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("Scan read back %+v, want the record appended", got)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collectForward(t, l2); len(got) != 2 || !reflect.DeepEqual(got[1], want) {
		t.Fatalf("the reopened log holds %d records, or the mixed one differs", len(got))
	}
}

// goldenRecord is one record's bytes as the encoder must write them: seq
// 0x1_0000_0005, TID 0xA0B0C0D0, flags 2, a short range (3 bytes at offset
// 0x40 of segment 3) and a wide one (4 bytes at offset 8 of segment 2^16),
// then 3 bytes of padding.  Byte by byte: totalLen 56, kind 0x09 (flags 2 in
// bits 2-3, a transaction in bits 0-1), three zero check bytes, the TID; the
// short header (len 3, seg 3, off 0x40) and "abc"; the wide header (len
// 0xFFFF, seg, off, len 4) and "wide"; padding; the CRC-32C.
const goldenRecord = "00000038" + "09000000" + "a0b0c0d0" +
	"0003" + "0003" + "00000040" + "616263" +
	"ffff" + "0000000000010000" + "0000000000000008" + "00000004" + "77696465" +
	"000000" + "1a2edae0"

// TestRecordGolden: the encoder writes goldenRecord byte for byte, the
// decoder reads it back, and the same bytes fail to decode under the
// sequence numbers either side of theirs, or with any check bit set — even
// with the CRC recomputed, since the check bits are what a scan tests before
// it trusts totalLen.
func TestRecordGolden(t *testing.T) {
	const seq = 1<<32 + 5
	ranges := []Range{{Seg: 3, Off: 0x40, Data: []byte("abc")}, {Seg: 1 << 16, Off: 8, Data: []byte("wide")}}
	got := appendRecord(nil, seq, recTx, 0xA0B0C0D0, 2, ranges, EncodedLen(ranges))
	if hex.EncodeToString(got) != goldenRecord {
		t.Fatalf("encoded %x\nwant    %s", got, goldenRecord)
	}
	var rec Record
	want := Record{Pos: 8, Len: 56, Seq: seq, TID: 0xA0B0C0D0, Type: RecTx, Flags: 2, Ranges: ranges}
	if !decodeRecord(&rec, got, 8, seq) || !reflect.DeepEqual(rec, want) {
		t.Fatalf("decoded %+v, want %+v", rec, want)
	}
	for _, s := range []uint64{seq - 1, seq + 1} {
		if decodeRecord(&rec, got, 8, s) {
			t.Fatalf("the record of seq %d decodes as seq %d", uint64(seq), s)
		}
	}
	for bit := range 32 {
		if checkMask&(1<<bit) == 0 {
			continue
		}
		bad := bytes.Clone(got)
		binary.BigEndian.PutUint32(bad[4:], binary.BigEndian.Uint32(bad[4:])|1<<bit)
		reseal(bad, seq)
		if decodeRecord(&rec, bad, 8, seq) {
			t.Fatalf("the record decodes with check bit %d set", bit)
		}
	}
}

// legacyLog returns a log image whose status blocks say format version v (1
// or 2), with the head at offset 0 expecting headSeq, and one record of that
// version carrying seq at the head: 9 bytes "legacy-rv" at offset 64 of
// segment 1.  Both versions open with a 32-byte header (magic "RVLG",
// totalLen, type, flags, range count, seq, TID) and end with totalLen and an
// IEEE CRC; version 1 has a 20-byte range header (seg u64, off u64, len u32)
// and the seq again in its trailer, version 2 an 8-byte one (len u16, seg
// u16, off u32).
func legacyLog(t *testing.T, v uint32, headSeq, seq uint64) []byte {
	t.Helper()
	img := newMemImage(t, 1<<14)
	for slot := 0; slot < 2; slot++ {
		b := img[slot*mapping.PageSize:]
		binary.BigEndian.PutUint32(b[4:], v)
		binary.BigEndian.PutUint64(b[32:], headSeq)
		binary.BigEndian.PutUint32(b[40:], crc32.ChecksumIEEE(b[:40]))
	}
	n := 64
	if v == 1 {
		n = 88
	}
	rec := img[areaOff(0) : areaOff(0)+int64(n)]
	binary.BigEndian.PutUint32(rec[0:], 0x52564c47)
	binary.BigEndian.PutUint32(rec[4:], uint32(n))
	rec[8], rec[15] = recTx, 1
	binary.BigEndian.PutUint64(rec[16:], seq)
	if v == 1 {
		binary.BigEndian.PutUint64(rec[32:], 1)
		binary.BigEndian.PutUint64(rec[40:], 64)
		binary.BigEndian.PutUint32(rec[48:], 9)
		copy(rec[52:], "legacy-rv")
		binary.BigEndian.PutUint64(rec[n-16:], seq)
	} else {
		binary.BigEndian.PutUint64(rec[32:], 9<<48|1<<32|64)
		copy(rec[40:], "legacy-rv")
	}
	binary.BigEndian.PutUint32(rec[n-8:], uint32(n))
	binary.BigEndian.PutUint32(rec[n-4:], crc32.ChecksumIEEE(rec[:n-4]))
	return img
}

// TestOpenUpgradesCleanV1Log: a version-1 log with no live record — its head
// holds a record of an earlier lap — opens, and its status blocks are
// version 3 afterwards, one generation on; what it logs then reads back
// after a reopen.
func TestOpenUpgradesCleanV1Log(t *testing.T) { checkUpgrade(t, 1) }

// TestOpenUpgradesCleanV2Log is TestOpenUpgradesCleanV1Log for version 2.
func TestOpenUpgradesCleanV2Log(t *testing.T) { checkUpgrade(t, 2) }

func checkUpgrade(t *testing.T, v uint32) {
	l, dev := openMem(t, legacyLog(t, v, 5, 4))
	if l.Used() != 0 || l.gen != 2 {
		t.Fatalf("upgraded log has %d live bytes at generation %d, want 0 and 2", l.Used(), l.gen)
	}
	for slot := 0; slot < 2; slot++ {
		if st, ok := readStatus(dev, slot); !ok || st.version != 3 || st.gen != 2 || st.headSeq != 5 {
			t.Fatalf("status slot %d reads %+v (valid %v) after the upgrade", slot, st, ok)
		}
	}
	if _, _, _, err := l.Append(9, 0, []Range{mkRange(1, 64, 'n', 9)}); err != nil {
		t.Fatal(err)
	}
	l2, _ := openMem(t, dev.Bytes())
	if recs := collectForward(t, l2); len(recs) != 1 || recs[0].Seq != 5 || string(recs[0].Ranges[0].Data) != "nnnnnnnnn" {
		t.Fatalf("reopened upgraded log holds %d records", len(recs))
	}
}

// TestOpenRefusesLiveV1Log: a version-1 log whose head holds a live record,
// or a log of a version this build never wrote, is refused with
// ErrLogVersion naming the version, and not a byte of it changes.
func TestOpenRefusesLiveV1Log(t *testing.T) {
	future := legacyLog(t, 1, 5, 4)
	for slot := 0; slot < 2; slot++ {
		b := future[slot*mapping.PageSize:]
		binary.BigEndian.PutUint32(b[4:], 7)
		binary.BigEndian.PutUint32(b[40:], crc32.ChecksumIEEE(b[:40]))
	}
	checkRefused(t, "version 1,", legacyLog(t, 1, 4, 4))
	checkRefused(t, "version 7,", future)
}

// TestOpenRefusesLiveV2Log is TestOpenRefusesLiveV1Log for version 2.
func TestOpenRefusesLiveV2Log(t *testing.T) { checkRefused(t, "version 2,", legacyLog(t, 2, 4, 4)) }

func checkRefused(t *testing.T, found string, img []byte) {
	path := t.TempDir() + "/log.rvm"
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if !errors.Is(err, ErrLogVersion) || !strings.Contains(err.Error(), found) || !strings.Contains(err.Error(), "version 3 wanted") {
		t.Fatalf("Open returned %v, want ErrLogVersion naming %q and version 3", err, found)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, img) {
		t.Fatalf("the refused %s log changed", strings.TrimSuffix(found, ","))
	}
}
