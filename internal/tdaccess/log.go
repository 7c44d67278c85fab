// Package tdaccess implements the Tencent Data Access analog of the paper
// (§3.2): a publish/subscribe layer that decouples data sources (the
// production applications) from the data processing systems.
//
// Producers publish messages to topics; topics are divided into
// partitions "to achieve better parallelism"; consumers subscribe and
// read partitions in parallel. Unlike a traditional message queue,
// TDAccess "caches the data in disk" so that late-joining or offline
// consumers can replay history, and it "utilizes sequential operations to
// accelerate the speed of reads and writes": every partition is a
// segmented append-only log on disk. The broker balances producers and
// consumers at partition granularity. The paper's data servers and
// standby master are left out, since the process that runs the broker is
// the failure unit.
package tdaccess

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// ErrOffsetOutOfRange is returned when reading an offset that has not
// been written yet.
var ErrOffsetOutOfRange = errors.New("tdaccess: offset out of range")

// defaultSegmentBytes rotates a partition's active segment once it grows
// past this size, keeping individual files bounded.
const defaultSegmentBytes = 4 << 20

// maxSegmentBytes caps the rotation size so that a segment, its last
// record included, stays under 4 GiB and an index entry's 32-bit byte
// position cannot overflow.
const maxSegmentBytes = 1 << 30

// pageSize is the smallest mapping of an active segment, and a
// reservation is a whole number of pages.
var pageSize = int64(os.Getpagesize())

// indexInterval is the bytes of file written between two entries of a
// segment's sparse index: a read walks at most this far past an entry
// to reach the record it wants.
const indexInterval = 4 << 10

// indexEntry locates one record of a segment: its offset relative to the
// segment's base and its byte position in the file.
type indexEntry struct{ rel, pos uint32 }

// segment is one append-only file of a partition log.
type segment struct {
	base  int64 // offset of the first message in this segment
	path  string
	f     *os.File
	size  int64
	count int64 // records held
	// m maps the active segment's file MAP_SHARED over its fallocated
	// blocks: appends store into it and reads copy out of it, both under
	// the log's lock. Nil once the segment is sealed.
	m []byte
	// index holds the record at position 0, then the first record that
	// starts indexInterval or more bytes past the previous entry.
	index []indexEntry
	// hint packs rel<<32 | pos of the record after the last run read, so
	// a poller caught up with the log starts there without walking.
	hint atomic.Uint64
}

// add indexes one record of n bytes written at the segment's end. Appends
// and recovery both go through it, so a reopened log has the index its
// appends built.
func (s *segment) add(n int64) {
	if len(s.index) == 0 || s.size >= int64(s.index[len(s.index)-1].pos)+indexInterval {
		s.index = append(s.index, indexEntry{rel: uint32(s.count), pos: uint32(s.size)})
	}
	s.count++
	s.size += n
}

// walkFrom returns the record at or below rel that a read walks from: the
// sparse entry's, or the hint's when it lies between that entry and rel.
// The hint is one word, so a hint another reader stored meanwhile is
// still a record boundary: losing the race costs a walk, not a wrong read.
func (s *segment) walkFrom(rel int64) (from, pos int64) {
	e := s.index[sort.Search(len(s.index), func(j int) bool { return int64(s.index[j].rel) > rel })-1]
	from, pos = int64(e.rel), int64(e.pos)
	if h := s.hint.Load(); int64(h>>32) <= rel && int64(h>>32) > from {
		return int64(h >> 32), int64(uint32(h))
	}
	return from, pos
}

// plog is a partition's segmented on-disk log. All appends are sequential,
// copies into the active segment's mapping; reads walk the record headers
// from the resident sparse index.
type plog struct {
	mu          sync.RWMutex
	dir         string
	segments    []*segment // ascending base offset; last is active
	nextOffset  int64
	segmentSize int64
	// fail, when set (Broker.FailPartition), is what appends and reads
	// return in place of their work.
	fail error
}

// failWith arms err on the log's appends and reads; nil clears it. A
// closed log keeps ErrClosed.
func (l *plog) failWith(err error) {
	l.mu.Lock()
	if l.fail != ErrClosed {
		l.fail = err
	}
	l.mu.Unlock()
}

// openLog opens (creating if necessary) a partition log in dir and
// recovers its segments.
func openLog(dir string, segmentBytes int64) (*plog, error) {
	if segmentBytes <= 0 {
		segmentBytes = defaultSegmentBytes
	}
	segmentBytes = min(segmentBytes, maxSegmentBytes)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tdaccess: create log dir: %w", err)
	}
	l := &plog{dir: dir, segmentSize: segmentBytes}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("tdaccess: list segments: %w", err)
	}
	type baseName struct {
		base int64
		name string
	}
	var bns []baseName
	for _, n := range names {
		s := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(n), "seg-"), ".log")
		base, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			continue
		}
		bns = append(bns, baseName{base, n})
	}
	sort.Slice(bns, func(i, j int) bool { return bns[i].base < bns[j].base })
	for i, bn := range bns {
		flag := os.O_RDONLY
		if i == len(bns)-1 {
			flag = os.O_RDWR // the active segment: appends map it
		}
		seg, err := recoverSegment(bn.base, bn.name, flag)
		if err != nil {
			l.closeFiles()
			return nil, err
		}
		l.segments = append(l.segments, seg)
		l.nextOffset = seg.base + seg.count
	}
	if len(l.segments) == 0 {
		if err := l.rotateLocked(); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Cut the torn tail, or the zero tail of a mapping a crash left, so
	// appends resume at a clean boundary, then map what is left.
	last := l.segments[len(l.segments)-1]
	if err := last.f.Truncate(last.size); err != nil {
		l.closeFiles()
		return nil, fmt.Errorf("tdaccess: truncate torn tail: %w", err)
	}
	if err := l.reserveLocked(last, last.size); err != nil {
		l.closeFiles()
		return nil, err
	}
	return l, nil
}

// closeFiles closes the segment files of a log that failed to open.
func (l *plog) closeFiles() {
	for _, s := range l.segments {
		s.f.Close()
	}
}

// recordHeader is the fixed prefix of a record on disk:
// crc32(body) | len(body), both little-endian uint32.
const recordHeader = 8

// maxMessage bounds a single record body.
const maxMessage = 64 << 20

// recoverSegment opens a segment file with flag and indexes the records
// that are whole and CRC-clean from its start; what follows them is a torn
// tail, or the zero tail of a mapping. No segment this log writes passes
// 4 GiB; a file that does is refused, not cut.
func recoverSegment(base int64, path string, flag int) (*segment, error) {
	f, err := os.OpenFile(path, flag, 0)
	if err != nil {
		return nil, fmt.Errorf("tdaccess: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tdaccess: stat segment: %w", err)
	}
	seg := &segment{base: base, path: path, f: f}
	r := bufio.NewReader(f)
	for {
		n, err := skipRecord(r, st.Size()-seg.size)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("tdaccess: recover %s: %w", path, err)
		}
		if n == 0 {
			break // torn tail from a crash: keep what was fully written
		}
		if seg.size+n > math.MaxUint32 {
			f.Close()
			return nil, fmt.Errorf("tdaccess: recover %s: segment passes 4 GiB", path)
		}
		seg.add(n)
	}
	return seg, nil
}

// skipRecord advances past one record of a file with left bytes to go
// and returns its encoded size, or 0 when those bytes do not hold a whole
// CRC-clean record. No record has an empty body, so a header of length 0
// is where the data ends: the start of the zero tail that a mapped segment
// leaves when its process dies before Close cuts it. The body is
// checksummed through the reader's buffer: a length field is never
// trusted with an allocation, and one that claims more than the file has
// left is a torn tail without reading further.
func skipRecord(r *bufio.Reader, left int64) (int64, error) {
	if left < recordHeader {
		return 0, nil
	}
	hdr, err := r.Peek(recordHeader)
	if err != nil {
		return 0, tornOrErr(err)
	}
	want := binary.LittleEndian.Uint32(hdr[0:4])
	size := int64(binary.LittleEndian.Uint32(hdr[4:8]))
	if size == 0 || size > maxMessage || size > left-recordHeader {
		return 0, nil
	}
	r.Discard(recordHeader) // cannot fail: just peeked
	var crc uint32
	for rem := size; rem > 0; {
		chunk, err := r.Peek(int(min(rem, int64(r.Size()))))
		if err != nil {
			return 0, tornOrErr(err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		r.Discard(len(chunk))
		rem -= int64(len(chunk))
	}
	if crc != want {
		return 0, nil
	}
	return recordHeader + size, nil
}

// tornOrErr maps a file that ended early (it shrank under the scan) to a
// torn tail and passes a real read error on.
func tornOrErr(err error) error {
	if err == io.EOF {
		return nil
	}
	return err
}

// rotateLocked seals the active segment and starts a new one. Caller
// holds l.mu.
func (l *plog) rotateLocked() error {
	if len(l.segments) > 0 {
		if err := l.segments[len(l.segments)-1].seal(); err != nil {
			return err
		}
	}
	path := filepath.Join(l.dir, fmt.Sprintf("seg-%012d.log", l.nextOffset))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("tdaccess: create segment: %w", err)
	}
	seg := &segment{base: l.nextOffset, path: path, f: f}
	if err := l.reserveLocked(seg, 0); err != nil {
		f.Close()
		return err
	}
	l.segments = append(l.segments, seg)
	return nil
}

// reserveLocked maps the active segment over at least need bytes: double
// the mapping, up to the rotation size, or need if that is more, in whole
// pages. A log that holds a few records reserves a page, not a segment.
// fallocate allocates the file's blocks up to the new length first,
// so a full disk fails here, as an error of the append that asked, and a
// store into the mapping never meets a hole the disk cannot fill (SIGBUS).
// Caller holds l.mu for writing, or has not published the log yet.
func (l *plog) reserveLocked(seg *segment, need int64) error {
	n := max(need, min(2*int64(len(seg.m)), l.segmentSize), pageSize)
	n = (n + pageSize - 1) &^ (pageSize - 1)
	fd := int(seg.f.Fd())
	err := syscall.Fallocate(fd, 0, 0, n)
	for err == syscall.EINTR {
		err = syscall.Fallocate(fd, 0, 0, n)
	}
	if err != nil {
		return fmt.Errorf("tdaccess: reserve %d bytes of %s: %w", n, seg.path, err)
	}
	m, err := syscall.Mmap(fd, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("tdaccess: map %s: %w", seg.path, err)
	}
	old := seg.m
	seg.m = m
	if old != nil {
		if err := syscall.Munmap(old); err != nil {
			return fmt.Errorf("tdaccess: unmap %s: %w", seg.path, err)
		}
	}
	return nil
}

// seal unmaps the active segment and cuts the reservation off its file,
// which then holds exactly its records. The file stays open for reads.
// Caller holds l.mu for writing.
func (s *segment) seal() error {
	if s.m == nil {
		return nil
	}
	if err := syscall.Munmap(s.m); err != nil {
		return fmt.Errorf("tdaccess: unmap %s: %w", s.path, err)
	}
	s.m = nil
	if err := s.f.Truncate(s.size); err != nil {
		return fmt.Errorf("tdaccess: seal %s: %w", s.path, err)
	}
	return nil
}

// appendParts writes one record and returns its message offset. Frame:
// crc32(body) | len(body) | body, the body given as head, key and tail back
// to back (the broker's message frame), so Send need not join them first.
// The record is copied into the active segment's mapping, its header last,
// under the write lock: no system call unless the mapping must grow or the
// segment rotate. When it returns the record is in the page cache. A log
// failed by Broker.FailPartition returns its error and writes nothing.
func (l *plog) appendParts(head []byte, key string, tail []byte) (int64, error) {
	size := len(head) + len(key) + len(tail)
	if size == 0 {
		return 0, errors.New("tdaccess: empty record body")
	}
	if size > maxMessage {
		return 0, fmt.Errorf("tdaccess: message of %d bytes exceeds limit", size)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fail != nil {
		return 0, l.fail
	}
	seg := l.segments[len(l.segments)-1]
	if seg.size >= l.segmentSize {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
		seg = l.segments[len(l.segments)-1]
	}
	end := seg.size + recordHeader + int64(size)
	if end > int64(len(seg.m)) {
		if err := l.reserveLocked(seg, end); err != nil {
			return 0, err
		}
	}
	rec := seg.m[seg.size:end]
	p := recordHeader + copy(rec[recordHeader:], head)
	p += copy(rec[p:], key)
	copy(rec[p:], tail)
	binary.LittleEndian.PutUint32(rec[0:4], crc32.ChecksumIEEE(rec[recordHeader:]))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(size))
	off := l.nextOffset
	seg.add(int64(len(rec)))
	l.nextOffset++
	return off, nil
}

// ReadFrom appends up to max record bodies starting at offset to dst and
// returns it; an offset at the tail appends nothing. Each contiguous run
// of a segment is fetched into one buffer, by one positioned read from a
// sealed segment or one copy out of the active segment's mapping, from
// the index entry (or the segment's hint) at or below the run's first
// record to the entry past its last (or the segment's end), and the call
// carries on into the next segment until max is met. The record headers
// before the run are walked, not checked; every record returned has its
// length and CRC checked, and on a mismatch the records before it are
// returned with an error naming its offset. A skipped record whose length
// field is corrupt leads the walk astray: the call returns no records and
// an error naming the requested offset.
// The bodies alias the run's buffer, each clipped to its own capacity so
// an append to one cannot reach its neighbour; the buffer lives as long
// as any body read from it is referenced.
// A log failed by Broker.FailPartition returns its error and reads
// nothing.
func (l *plog) ReadFrom(dst [][]byte, offset int64, max int) ([][]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.fail != nil {
		return dst, l.fail
	}
	if offset < 0 {
		return dst, ErrOffsetOutOfRange
	}
	if offset >= l.nextOffset {
		return dst, nil
	}
	// Find the owning segment (last one with base <= offset). A trimmed
	// log's first base may exceed the offset: that record is gone.
	i := sort.Search(len(l.segments), func(i int) bool { return l.segments[i].base > offset }) - 1
	if i < 0 {
		return dst, ErrOffsetOutOfRange
	}
	for first := offset; max > 0 && offset < l.nextOffset; i++ {
		seg := l.segments[i]
		rel := offset - seg.base
		if rel < 0 || rel >= seg.count {
			// A hole: recovery kept only the clean prefix of a segment that
			// is not the last, and the offsets behind it are gone. What
			// was read up to the hole is good; the next call reports it.
			if offset > first {
				return dst, nil
			}
			return dst, ErrOffsetOutOfRange
		}
		n := min(int64(max), seg.count-rel)
		from, start := seg.walkFrom(rel)
		end := seg.size
		if j := sort.Search(len(seg.index), func(j int) bool { return int64(seg.index[j].rel) >= rel+n }); j < len(seg.index) {
			end = int64(seg.index[j].pos)
		}
		buf := make([]byte, end-start)
		if seg.m != nil {
			copy(buf, seg.m[start:end])
		} else if _, err := seg.f.ReadAt(buf, start); err != nil {
			return dst, fmt.Errorf("tdaccess: read %d records at offset %d: %w", n, offset, err)
		}
		p := 0
		for ; from < rel; from++ {
			size := bodyLen(buf, p)
			if size < 0 {
				return dst, fmt.Errorf("tdaccess: corrupt record before offset %d", offset)
			}
			p += recordHeader + size
		}
		for k := int64(0); k < n; k++ {
			size := bodyLen(buf, p)
			if size < 0 || crc32.ChecksumIEEE(buf[p+recordHeader:p+recordHeader+size]) != binary.LittleEndian.Uint32(buf[p:p+4]) {
				return dst, fmt.Errorf("tdaccess: crc mismatch at offset %d", offset+k)
			}
			p += recordHeader + size
			dst = append(dst, buf[p-size:p:p])
		}
		seg.hint.Store(uint64(rel+n)<<32 | uint64(start+int64(p)))
		offset += n
		max -= int(n)
	}
	return dst, nil
}

// bodyLen returns the length field of the record header at buf[p:], or -1
// when the header or the body it claims runs past the end of buf.
func bodyLen(buf []byte, p int) int {
	if len(buf)-p < recordHeader {
		return -1
	}
	size := int(binary.LittleEndian.Uint32(buf[p+4 : p+8]))
	if size > len(buf)-p-recordHeader {
		return -1
	}
	return size
}

// NextOffset returns the offset the next append will receive.
func (l *plog) NextOffset() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.nextOffset
}

// SegmentCount returns the number of on-disk segments.
func (l *plog) SegmentCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.segments)
}

// Close seals the active segment, so the files hold exactly their
// records, and closes all files. Appends and reads then return ErrClosed.
func (l *plog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	for _, s := range l.segments {
		if err := s.seal(); err != nil && first == nil {
			first = err
		}
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	l.segments = nil
	l.fail = ErrClosed
	return first
}
