package tdaccess

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// refRecord is one record of a segment file as decodeSegment reads it.
type refRecord struct {
	pos  int64
	body []byte
}

// decodeSegment is the reference decoder: it reads a segment file whole
// and returns its records from the start up to the first one that is not
// whole and CRC-clean, or whose body is empty: no record has one, and the
// active segment's zero tail begins with such a header.
func decodeSegment(t testing.TB, path string) []refRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []refRecord
	for pos := 0; len(data)-pos >= recordHeader; {
		size := int(binary.LittleEndian.Uint32(data[pos+4:]))
		if size == 0 || size > len(data)-pos-recordHeader {
			break
		}
		body := data[pos+recordHeader : pos+recordHeader+size]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[pos:]) {
			break
		}
		out = append(out, refRecord{int64(pos), body})
		pos += recordHeader + size
	}
	return out
}

// wantIndex applies the sparse index's rule to a segment's record
// positions: the record at 0, then the first at or past indexInterval
// bytes beyond the previous entry.
func wantIndex(recs []refRecord) []indexEntry {
	var idx []indexEntry
	for i, r := range recs {
		if len(idx) == 0 || r.pos >= int64(idx[len(idx)-1].pos)+indexInterval {
			idx = append(idx, indexEntry{rel: uint32(i), pos: uint32(r.pos)})
		}
	}
	return idx
}

// randomBody returns a body of 1 byte to past 4 KiB: mostly small, a fifth
// of a few hundred bytes and one in ten longer than an index interval, so
// entries fall on records of every size and some records carry an entry
// each.
func randomBody(rng *rand.Rand, i int) []byte {
	var n int
	switch r := rng.Intn(10); {
	case r < 7:
		n = 1 + rng.Intn(64)
	case r < 9:
		n = 64 + rng.Intn(960)
	default:
		n = indexInterval + rng.Intn(2048)
	}
	b := make([]byte, n)
	rng.Read(b)
	b[0] = byte(i)
	return b
}

// randomLog appends records of random sizes to a log in dir with 48 KiB
// segments until it holds at least four segments.
func randomLog(t *testing.T, dir string, seed int64) *plog {
	t.Helper()
	l, err := openLog(dir, 48<<10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 500 || l.SegmentCount() < 4; i++ {
		if _, err := l.Append(randomBody(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// reference decodes every segment file of l, checks that each segment's
// index is the rule applied to its records and holds no more than one
// entry per indexInterval bytes and one more, and returns the records of
// the whole log in offset order.
func reference(t *testing.T, l *plog) []refRecord {
	t.Helper()
	l.mu.RLock()
	defer l.mu.RUnlock()
	var all []refRecord
	for _, seg := range l.segments {
		recs := decodeSegment(t, seg.path)
		if seg.base != int64(len(all)) || seg.count != int64(len(recs)) {
			t.Fatalf("segment at %d holds %d records; its file has %d from offset %d", seg.base, seg.count, len(recs), len(all))
		}
		if want := wantIndex(recs); fmt.Sprint(seg.index) != fmt.Sprint(want) {
			t.Fatalf("segment at %d: index %v, want %v", seg.base, seg.index, want)
		}
		if int64(len(seg.index)) > seg.size/indexInterval+1 {
			t.Fatalf("segment at %d: %d entries for %d bytes", seg.base, len(seg.index), seg.size)
		}
		all = append(all, recs...)
	}
	return all
}

// checkReads compares ReadFrom at every offset and several max values
// with the reference, visiting the offsets in order and then shuffled, so
// that reads start from the hint, from a sparse entry and from a hint that
// lies past them.
func checkReads(t *testing.T, l *plog, ref []refRecord, seed int64) {
	t.Helper()
	offsets := make([]int, len(ref))
	for i := range offsets {
		offsets[i] = i
	}
	shuffled := append([]int(nil), offsets...)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, order := range [][]int{offsets, shuffled} {
		for _, n := range []int{1, 2, 9, 100, len(ref)} {
			for _, off := range order {
				got, err := l.ReadFrom(nil, int64(off), n)
				if err != nil {
					t.Fatalf("ReadFrom(%d, %d): %v", off, n, err)
				}
				want := ref[off:min(off+n, len(ref))]
				if len(got) != len(want) {
					t.Fatalf("ReadFrom(%d, %d) = %d records, want %d", off, n, len(got), len(want))
				}
				for k, b := range got {
					if !bytes.Equal(b, want[k].body) || cap(b) != len(b) {
						t.Fatalf("ReadFrom(%d, %d): record %d differs from the file's (cap %d)", off, n, off+k, cap(b))
					}
				}
			}
		}
	}
}

// TestSparseIndexMatchesReference is the differential test of the run
// reader: on a log of at least four segments and records of 1 byte to
// past 4 KiB, every read equals a decode of the segment files.
func TestSparseIndexMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		l := randomLog(t, t.TempDir(), seed)
		ref := reference(t, l)
		checkReads(t, l, ref, seed)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// 64-byte records start exactly on each interval: an entry every 64.
	l, err := openLog(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 150; i++ {
		if _, err := l.Append(make([]byte, 64-recordHeader)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fmt.Sprint(l.segments[0].index), "[{0 0} {64 4096} {128 8192}]"; got != want {
		t.Fatalf("index of 64-byte records = %s, want %s", got, want)
	}
}

// TestSparseIndexSurvivesReopen: the index recovery builds from the files
// is the index the appends built, and reads after the reopen, and after
// appends to the reopened log, still equal the reference.
func TestSparseIndexSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l := randomLog(t, dir, 7)
	built := make(map[int64]string)
	for _, seg := range l.segments {
		built[seg.base] = fmt.Sprint(seg.count, seg.size, seg.index)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := openLog(dir, 48<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(l.segments) != len(built) {
		t.Fatalf("reopened %d segments, wrote %d", len(l.segments), len(built))
	}
	for _, seg := range l.segments {
		if got := fmt.Sprint(seg.count, seg.size, seg.index); got != built[seg.base] {
			t.Fatalf("segment at %d recovered as %s, appends built %s", seg.base, got, built[seg.base])
		}
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		if _, err := l.Append(randomBody(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	checkReads(t, l, reference(t, l), 7)
}

// namesOffset matches an error text that names the given offset.
func namesOffset(err error, off int64) bool {
	return err != nil && regexp.MustCompile(fmt.Sprintf(`offset %d\b`, off)).MatchString(err.Error())
}

// writeAt overwrites the segment file of l's first segment at pos.
func writeAt(t *testing.T, l *plog, pos int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(l.segments[0].path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, pos); err != nil {
		t.Fatal(err)
	}
}

// TestSparseIndexCorruption: a read reaches its records by walking the
// headers from an index entry, and corruption on the way behaves as
// follows. A flipped body byte in a returned record fails the read with
// that record's offset and the records before it, as it did when every
// record was indexed; one in a record skipped on the way changes nothing,
// because only returned records are checked. A corrupt length field in a
// skipped record leads the walk astray: the read returns no records and
// an error naming the requested offset, and reads that start from an
// entry past it are unaffected.
func TestSparseIndexCorruption(t *testing.T) {
	// 19-byte records: an entry every 216 records, at 0, 216, 432, ...
	open := func(t *testing.T) (*plog, []refRecord) {
		l, err := openLog(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		for i := 0; i < 1000; i++ {
			if _, err := l.Append(testBody(i)); err != nil {
				t.Fatal(err)
			}
		}
		ref := reference(t, l)
		if e := l.segments[0].index; len(e) < 3 || e[1].rel != 216 {
			t.Fatalf("index %v: want an entry every 216 records", e)
		}
		return l, ref
	}
	t.Run("flipped body byte in a returned record", func(t *testing.T) {
		l, ref := open(t)
		flipByte(t, l, 100)
		got, err := l.ReadFrom(nil, 90, 20)
		if !namesOffset(err, 100) || len(got) != 10 {
			t.Fatalf("ReadFrom(90, 20) = %d records, %v; want the 10 before offset 100 and its crc error", len(got), err)
		}
		for k, b := range got {
			if !bytes.Equal(b, ref[90+k].body) {
				t.Fatalf("record %d differs from the file's", 90+k)
			}
		}
		// Skipped on the way to 101, it is not checked.
		if got, err := l.ReadFrom(nil, 101, 5); err != nil || len(got) != 5 || !bytes.Equal(got[0], ref[101].body) {
			t.Fatalf("ReadFrom(101, 5) = %d records, %v; want 5", len(got), err)
		}
	})
	for _, tc := range []struct {
		name   string
		length uint32
	}{
		{"length past the buffer", 1 << 20},
		{"length one short", uint32(len(testBody(50))) - 1},
	} {
		t.Run("corrupt "+tc.name+" in a skipped record", func(t *testing.T) {
			l, ref := open(t)
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], tc.length)
			writeAt(t, l, ref[50].pos+4, b[:])
			if got, err := l.ReadFrom(nil, 100, 5); !namesOffset(err, 100) || len(got) != 0 {
				t.Fatalf("ReadFrom(100, 5) = %d records, %v; want none and an error naming offset 100", len(got), err)
			}
			// Record 50 itself is returned, so its check names it.
			if got, err := l.ReadFrom(nil, 50, 5); !namesOffset(err, 50) || len(got) != 0 {
				t.Fatalf("ReadFrom(50, 5) = %d records, %v; want none and an error naming offset 50", len(got), err)
			}
			// A read from the next entry on does not walk past it.
			if got, err := l.ReadFrom(nil, 216, 5); err != nil || len(got) != 5 || !bytes.Equal(got[0], ref[216].body) {
				t.Fatalf("ReadFrom(216, 5) = %d records, %v; want 5", len(got), err)
			}
		})
	}
}

// TestReadFromConcurrentReadersShareHints: readers at unrelated offsets
// overwrite each other's segment hints beside an appender that rotates
// segments, and every read still returns the right records. Meaningful
// under -race.
func TestReadFromConcurrentReadersShareHints(t *testing.T) {
	const total, readers = 3000, 4
	l, err := openLog(t.TempDir(), 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1 + readers)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if _, err := l.Append(testBody(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var scratch [][]byte
			for reads := 0; reads < 2000; reads++ {
				end := l.NextOffset()
				if end == 0 {
					runtime.Gosched()
					continue
				}
				off := rng.Int63n(end)
				var err error
				if scratch, err = l.ReadFrom(scratch[:0], off, 1+rng.Intn(40)); err != nil {
					t.Error(err)
					return
				}
				for k, b := range scratch {
					if !bytes.Equal(b, testBody(int(off)+k)) {
						t.Errorf("record %d read as %q", off+int64(k), b)
						return
					}
				}
			}
		}(int64(r))
	}
	wg.Wait()
}

// BenchmarkLogResidentIndex appends a million records of the benchmark's
// action size (a 39-byte body, 47 bytes on disk) and reports what the
// segments' indexes hold, their capacity at 8 bytes an entry, per MiB of
// log written.
func BenchmarkLogResidentIndex(b *testing.B) {
	const records = 1000000
	body := bytes.Repeat([]byte("a"), 39)
	var perMiB float64
	for range b.N {
		l, err := openLog(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < records; i++ {
			if _, err := l.Append(body); err != nil {
				b.Fatal(err)
			}
		}
		var index, size int64
		for _, seg := range l.segments {
			index += int64(cap(seg.index)) * int64(unsafe.Sizeof(seg.index[0]))
			size += seg.size
		}
		perMiB = float64(index) / (float64(size) / (1 << 20))
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(perMiB, "B/MiB")
}
