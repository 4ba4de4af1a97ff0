package wal

import (
	"bytes"
	"encoding/binary"
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
// records and two balances, in one segment) fits in 280 bytes, and one
// record mixing short headers with wide ones — a segment past 2^16, an offset
// past 2^32, a length of 0xFFFF and one of 64 KiB — reads back as appended,
// from the scan of a reopen and from Scan.
func TestRecordFraming(t *testing.T) {
	tpca := []Range{mkRange(1, 4096, 'a', 128), mkRange(1, 65536, 'h', 64), mkRange(1, 8, 'b', 8), mkRange(1, 16, 'c', 8)}
	l, path := newLog(t, 1<<18)
	if _, _, n, err := l.Append(1, 0, tpca); err != nil || n > 280 || n != EncodedLen(tpca) {
		t.Fatalf("a TPC-A record took %d bytes (EncodedLen %d, err %v), want at most 280", n, EncodedLen(tpca), err)
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
	pos, seq, n, err := l.Append(2, 7, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	want := &Record{Pos: pos, Len: n, Seq: seq, TID: 2, Type: RecTx, Flags: 7, Ranges: mixed}
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

// v1Log returns a log image whose status blocks say format version 1, with
// the head at offset 0 expecting headSeq, and one version-1 record of seq at
// the head: a 32-byte header, a 20-byte range header (seg u64, off u64, len
// u32) and 9 bytes of data, padding, and a 16-byte trailer (seq, totalLen,
// CRC).
func v1Log(t *testing.T, headSeq, seq uint64) []byte {
	t.Helper()
	img := newMemImage(t, 1<<14)
	for slot := 0; slot < 2; slot++ {
		b := img[slot*mapping.PageSize:]
		binary.BigEndian.PutUint32(b[4:], 1)
		binary.BigEndian.PutUint64(b[32:], headSeq)
		binary.BigEndian.PutUint32(b[40:], crc32.ChecksumIEEE(b[:40]))
	}
	rec := img[areaOff(0) : areaOff(0)+88]
	binary.BigEndian.PutUint32(rec[0:], recMagic)
	binary.BigEndian.PutUint32(rec[4:], 88)
	rec[8], rec[15] = recTx, 1
	binary.BigEndian.PutUint64(rec[16:], seq)
	binary.BigEndian.PutUint64(rec[32:], 1)
	binary.BigEndian.PutUint64(rec[40:], 64)
	binary.BigEndian.PutUint32(rec[48:], 9)
	copy(rec[52:], "v1-record")
	binary.BigEndian.PutUint64(rec[72:], seq)
	binary.BigEndian.PutUint32(rec[80:], 88)
	reseal(rec)
	return img
}

// TestOpenUpgradesCleanV1Log: a version-1 log with no live record — its head
// holds a record of an earlier lap — opens, and its status blocks are
// version 2 afterwards, one generation on; what it logs then reads back
// after a reopen.
func TestOpenUpgradesCleanV1Log(t *testing.T) {
	l, dev := openMem(t, v1Log(t, 5, 4))
	if l.Used() != 0 || l.gen != 2 {
		t.Fatalf("upgraded log has %d live bytes at generation %d, want 0 and 2", l.Used(), l.gen)
	}
	for slot := 0; slot < 2; slot++ {
		if st, ok := readStatus(dev, slot); !ok || st.version != FormatVersion || st.gen != 2 || st.headSeq != 5 {
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
	live := v1Log(t, 4, 4)
	future := v1Log(t, 5, 4)
	for slot := 0; slot < 2; slot++ {
		b := future[slot*mapping.PageSize:]
		binary.BigEndian.PutUint32(b[4:], 7)
		binary.BigEndian.PutUint32(b[40:], crc32.ChecksumIEEE(b[:40]))
	}
	for found, img := range map[string][]byte{"version 1,": live, "version 7,": future} {
		path := t.TempDir() + "/log.rvm"
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path)
		if !errors.Is(err, ErrLogVersion) || !strings.Contains(err.Error(), found) || !strings.Contains(err.Error(), "version 2 wanted") {
			t.Fatalf("Open returned %v, want ErrLogVersion naming %q and version 2", err, found)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, img) {
			t.Fatalf("the refused %s log changed", strings.TrimSuffix(found, ","))
		}
	}
}
