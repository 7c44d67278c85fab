// Package ldb implements TDStore's Level DataBase (LDB) storage engine: a
// log-structured key-value store in the spirit of LevelDB, which the paper
// lists among the engines its data servers support (§3.3).
//
// Writes go to an in-memory memtable; when it grows past a threshold it
// is flushed to an immutable sorted string table (SSTable). A table's
// index is its sorted keys and a Bloom filter, built while the table is
// written. Reads consult the memtable first, then the tables from newest
// to oldest, binary-searching only those whose filter may hold the key,
// through a block cache. A background compactor merges all tables into
// one by streaming their sorted indexes when the table count grows past a
// threshold. All I/O is sequential on the write path, matching the
// paper's emphasis on sequential operations for disk-backed components
// (§3.2).
//
// Durability contract: there is no write-ahead log. What survives a crash
// or a power loss is what a flush, a compaction, a Checkpoint or Close has
// published as a table, fsynced before its rename; a killed process loses
// its memtable. TDStore recovers a store from a checkpoint and a replay of
// the action log past it (DESIGN.md §16), and that replay rebuilds exactly
// what the memtable held. A wal.log that an earlier version left in the
// directory is ignored.
package ldb

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tencentrec/internal/tdstore/engine"
)

const (
	sstPrefix             = "sst-"
	sstSuffix             = ".tbl"
	flagTomb              = 1
	maxRecord             = 64 << 20 // sanity bound on a single record
	defaultFlushThreshold = 4096
	defaultMaxTables      = 8
	// tableWriteBuf is how many encoded bytes a table build gathers
	// before one write to its file.
	tableWriteBuf = 64 << 10

	// DefaultBlockCacheBytes is the SSTable read-cache budget when
	// Options.BlockCacheBytes is zero.
	DefaultBlockCacheBytes = 8 << 20
)

// ErrClosed is returned by operations on a closed store: engine.ErrClosed.
var ErrClosed = engine.ErrClosed

// errCorrupt marks a structurally invalid record (bad CRC, absurd
// lengths, keys out of order), as opposed to an I/O failure reading an
// otherwise intact file.
var errCorrupt = errors.New("ldb: corrupt record")

// Options configure a Store.
type Options struct {
	// FlushThreshold is the number of memtable entries that triggers a
	// flush to an SSTable. Zero means a default of 4096.
	FlushThreshold int
	// MaxTables is the number of SSTables that triggers a background
	// compaction. Zero means a default of 8.
	MaxTables int
	// BlockCacheBytes caps the SSTable read cache. Zero means
	// DefaultBlockCacheBytes; negative disables the cache.
	BlockCacheBytes int
}

// tombBit marks a tombstone in tableEntry.vlen. A value is at most
// maxRecord bytes on disk, far below it.
const tombBit = 1 << 31

// tableEntry locates one record of an SSTable in 16 bytes: where its
// value starts in the file, where its key ends in the table's keys (it
// starts where the previous entry's ends), and the value's length, whose
// top bit marks a tombstone.
type tableEntry struct {
	offset int64
	keyEnd uint32
	vlen   uint32
}

func (te tableEntry) tomb() bool  { return te.vlen&tombBit != 0 }
func (te tableEntry) length() int { return int(te.vlen &^ tombBit) }

// sstable is an immutable on-disk table with a resident index: its keys
// back to back in key order, which is file order, one entry and one
// keyPrefix per key, and a Bloom filter over the keys. lo and hi are the
// flush-sequence range the
// table covers: a freshly flushed table has lo == hi, a compacted table
// spans the sequences of its inputs and supersedes any table whose range
// it contains (crash recovery after an interrupted compaction cleanup).
type sstable struct {
	lo, hi   int
	path     string
	f        *os.File
	keys     string
	ents     []tableEntry
	prefixes []uint64
	filter   bloom
	bytes    int64 // on-disk size, for compaction accounting
}

// newTable returns the table of an index: keys back to back and their
// entries, in key order.
func newTable(lo, hi int, path string, f *os.File, keys []byte, ents []tableEntry, size int64) *sstable {
	if cap(ents)-len(ents) > len(ents)/8 { // grown by appends, or a merge dropped keys
		ents = slices.Clone(ents)
	}
	t := &sstable{lo: lo, hi: hi, path: path, f: f, keys: string(keys), ents: ents, bytes: size}
	t.prefixes = make([]uint64, len(ents))
	for i := range ents {
		t.prefixes[i] = keyPrefix(t.key(i))
	}
	t.filter = newBloom(t)
	return t
}

// keyPrefix is a key's first eight bytes as a big-endian integer, short
// keys padded with zeros. Of two keys whose prefixes differ, the one with
// the smaller prefix sorts first.
func keyPrefix(key string) uint64 {
	if len(key) >= 8 {
		return uint64(key[0])<<56 | uint64(key[1])<<48 | uint64(key[2])<<40 | uint64(key[3])<<32 |
			uint64(key[4])<<24 | uint64(key[5])<<16 | uint64(key[6])<<8 | uint64(key[7])
	}
	var p uint64
	for i := 0; i < 8; i++ {
		p <<= 8
		if i < len(key) {
			p |= uint64(key[i])
		}
	}
	return p
}

// lowerBound returns the index of the first prefix not below p. The loop
// has no branch on the data: its select compiles to a conditional move,
// so a search costs no mispredictions.
func lowerBound(prefixes []uint64, p uint64) int {
	i, n := 0, len(prefixes)
	for n > 1 {
		half := n >> 1
		if prefixes[i+half-1] < p {
			i += half
		}
		n -= half
	}
	if n == 1 && prefixes[i] < p {
		i++
	}
	return i
}

// keyStart is where the i-th key of an index begins in its keys.
func keyStart(ents []tableEntry, i int) uint32 {
	if i == 0 {
		return 0
	}
	return ents[i-1].keyEnd
}

// key returns the i-th key of the table, a substring of t.keys.
func (t *sstable) key(i int) string {
	return t.keys[keyStart(t.ents, i):t.ents[i].keyEnd]
}

// find returns the entry of key, whose keyHash is h. Only a table whose
// filter may hold the key is searched: by prefix, then by whole key among
// the keys that share its prefix, of which there is usually one.
func (t *sstable) find(key string, h uint64) (tableEntry, bool) {
	if !t.filter.mayContain(h) {
		return tableEntry{}, false
	}
	p := keyPrefix(key)
	i := lowerBound(t.prefixes, p)
	if i == len(t.prefixes) || t.prefixes[i] != p {
		return tableEntry{}, false
	}
	if k := t.key(i); k >= key {
		return t.ents[i], k == key
	}
	j := len(t.prefixes) // the end of the keys sharing p
	if p != math.MaxUint64 {
		j = i + lowerBound(t.prefixes[i:], p+1)
	}
	for i++; i < j; {
		m := int(uint(i+j) >> 1)
		if t.key(m) < key {
			i = m + 1
		} else {
			j = m
		}
	}
	if i < len(t.ents) && t.key(i) == key {
		return t.ents[i], true
	}
	return tableEntry{}, false
}

// bloom is a table's Bloom filter: bloomBitsPerKey bits and bloomProbes
// probes per key, about a 1 % false-positive rate. It lives only in
// memory, built from the keys whenever a table is written or opened, so
// its hash needs no fixed seed.
type bloom []uint64

const (
	bloomBitsPerKey = 10
	bloomProbes     = 7
)

var filterSeed = maphash.MakeSeed()

// keyHash is the hash a filter is built and probed with.
func keyHash(key string) uint64 { return maphash.String(filterSeed, key) }

// newBloom returns the filter of t's keys.
func newBloom(t *sstable) bloom {
	b := make(bloom, (len(t.ents)*bloomBitsPerKey+63)/64+1)
	for i := range t.ents {
		b.add(keyHash(t.key(i)))
	}
	return b
}

// bit returns the word and mask of probe g, placed by a multiply rather
// than a division. A key's probes are double hashing over its hash's two
// halves: probe i is g+i·delta.
func (b bloom) bit(g uint32) (int, uint64) {
	pos := uint64(g) * (uint64(len(b)) * 64) >> 32
	return int(pos >> 6), 1 << (pos & 63)
}

func (b bloom) add(h uint64) {
	g, delta := uint32(h), uint32(h>>32)|1
	for i := 0; i < bloomProbes; i++ {
		w, m := b.bit(g)
		b[w] |= m
		g += delta
	}
}

func (b bloom) mayContain(h uint64) bool {
	g, delta := uint32(h), uint32(h>>32)|1
	for i := 0; i < bloomProbes; i++ {
		if w, m := b.bit(g); b[w]&m == 0 {
			return false
		}
		g += delta
	}
	return true
}

// stats are the engine's observability counters (engine.Stats). All are
// written under Store.mu except the block-cache pair, which the lock-free
// read path updates atomically.
type stats struct {
	fsyncs          int64
	memtableFlushes int64
	compactions     int64
	compactionBytes int64
	recoveryNanos   int64
}

// Store is an LDB engine instance rooted at a directory.
type Store struct {
	mu      sync.Mutex
	dir     string
	opts    Options
	mem     map[string]engine.KV // newest version of each key, "" a deletion
	nextSeq int
	closed  bool
	st      stats

	// tableMu guards the tables slice and the lifetime of the table file
	// handles: readers hold RLock across ReadAt, and compaction swaps the
	// stack and closes retired files under Lock, so a reader never touches
	// a closed file. Lock order is always mu before tableMu.
	tableMu sync.RWMutex
	tables  []*sstable // oldest first

	// Background compaction.
	compactMu   sync.Mutex // serializes merges (background and manual)
	compactCh   chan struct{}
	compactStop chan struct{}
	compactDone chan struct{}
	compactErr  error // sticky first background-compaction failure

	cache     *blockCache
	cacheHits atomic.Int64
	cacheMiss atomic.Int64
}

// Open opens (creating if necessary) an LDB store in dir: its state is
// its tables, and its memtable starts empty.
func Open(dir string, opts Options) (*Store, error) {
	start := time.Now()
	if opts.FlushThreshold <= 0 {
		opts.FlushThreshold = defaultFlushThreshold
	}
	if opts.MaxTables <= 0 {
		opts.MaxTables = defaultMaxTables
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ldb: create dir: %w", err)
	}
	s := &Store{
		dir:         dir,
		opts:        opts,
		mem:         make(map[string]engine.KV),
		compactCh:   make(chan struct{}, 1),
		compactStop: make(chan struct{}),
		compactDone: make(chan struct{}),
	}
	if opts.BlockCacheBytes >= 0 {
		budget := opts.BlockCacheBytes
		if budget == 0 {
			budget = DefaultBlockCacheBytes
		}
		s.cache = newBlockCache(int64(budget))
	}
	if err := s.loadTables(); err != nil {
		return nil, err
	}
	s.st.recoveryNanos = time.Since(start).Nanoseconds()
	go s.compactLoop()
	return s, nil
}

// parseTableName extracts the sequence range from an SSTable file name:
// sst-<seq>.tbl for flushed tables, sst-<lo>-<hi>.tbl for compacted ones.
func parseTableName(base string) (lo, hi int, ok bool) {
	numStr := strings.TrimSuffix(strings.TrimPrefix(base, sstPrefix), sstSuffix)
	if i := strings.IndexByte(numStr, '-'); i >= 0 {
		lo, err1 := strconv.Atoi(numStr[:i])
		hi, err2 := strconv.Atoi(numStr[i+1:])
		if err1 != nil || err2 != nil || hi < lo {
			return 0, 0, false
		}
		return lo, hi, true
	}
	seq, err := strconv.Atoi(numStr)
	if err != nil {
		return 0, 0, false
	}
	return seq, seq, true
}

func tableName(lo, hi int) string {
	if lo == hi {
		return fmt.Sprintf("%s%08d%s", sstPrefix, lo, sstSuffix)
	}
	return fmt.Sprintf("%s%08d-%08d%s", sstPrefix, lo, hi, sstSuffix)
}

func (s *Store) loadTables() error {
	names, err := filepath.Glob(filepath.Join(s.dir, sstPrefix+"*"+sstSuffix))
	if err != nil {
		return fmt.Errorf("ldb: list tables: %w", err)
	}
	type seqName struct {
		lo, hi int
		name   string
	}
	var sns []seqName
	for _, n := range names {
		lo, hi, ok := parseTableName(filepath.Base(n))
		if !ok {
			continue // not ours
		}
		sns = append(sns, seqName{lo, hi, n})
	}
	// A compacted table supersedes every table whose range it strictly
	// contains: a crash between publishing the merged table and removing
	// its inputs leaves both on disk, and replaying the stale inputs as
	// if they were newer would resurrect overwritten values.
	live := sns[:0]
	for _, sn := range sns {
		superseded := false
		for _, other := range sns {
			if other.name != sn.name && other.lo <= sn.lo && sn.hi <= other.hi {
				superseded = true
				break
			}
		}
		if superseded {
			os.Remove(sn.name)
			continue
		}
		live = append(live, sn)
	}
	slices.SortFunc(live, func(a, b seqName) int { return cmp.Compare(a.lo, b.lo) })
	for _, sn := range live {
		t, err := openTable(sn.lo, sn.hi, sn.name)
		if err != nil {
			s.closeTables()
			return err
		}
		s.tables = append(s.tables, t)
		if sn.hi >= s.nextSeq {
			s.nextSeq = sn.hi + 1
		}
	}
	return nil
}

// closeTables closes the table files of a store whose Open failed.
func (s *Store) closeTables() {
	for _, t := range s.tables {
		t.f.Close()
	}
}

// openTable reads a table written by an earlier run and builds its index.
// Its keys must come in non-decreasing order; of equal neighbours the
// later record wins, so a table holding a key twice still opens. A key
// out of order, like any malformed record, makes the table corrupt.
func openTable(lo, hi int, path string) (*sstable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ldb: open table: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ldb: stat table %s: %w", path, err)
	}
	corrupt := func(off int64, err error) (*sstable, error) {
		f.Close()
		return nil, fmt.Errorf("ldb: table %s corrupt at offset %d: %w", path, off, err)
	}
	r := bufio.NewReader(f)
	var (
		keys []byte
		ents []tableEntry
		buf  []byte
		off  int64
	)
	for {
		rec, n, err := readRecord(r, fi.Size()-off, &buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return corrupt(off, err)
		}
		te := tableEntry{offset: off + int64(n-len(rec.value)), vlen: uint32(len(rec.value))}
		if rec.tomb {
			te.vlen |= tombBit
		}
		if last := len(ents) - 1; last >= 0 {
			switch c := bytes.Compare(rec.key, keys[keyStart(ents, last):]); {
			case c < 0:
				return corrupt(off, fmt.Errorf("%w: key %q sorts before the key ahead of it", errCorrupt, rec.key))
			case c == 0: // the later record wins
				te.keyEnd = ents[last].keyEnd
				ents[last] = te
				off += int64(n)
				continue
			}
		}
		if len(keys)+len(rec.key) > math.MaxUint32 {
			return corrupt(off, fmt.Errorf("%w: keys exceed 4 GiB", errCorrupt))
		}
		keys = append(keys, rec.key...)
		te.keyEnd = uint32(len(keys))
		ents = append(ents, te)
		off += int64(n)
	}
	return newTable(lo, hi, path, f, keys, ents, off), nil
}

// tableBuilder writes a table's records in key order to a temporary file
// and builds the table's index as it goes, so a new table is never read
// back: the flush and the compaction both produce their table through it.
type tableBuilder struct {
	path string
	f    *os.File
	buf  []byte // encoded records not yet written
	off  int64
	keys []byte
	ents []tableEntry
}

// createTable starts a table to be published at path, sized for n keys
// of keyBytes bytes in all (both hints).
func createTable(path string, n, keyBytes int) (*tableBuilder, error) {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, fmt.Errorf("ldb: create table: %w", err)
	}
	return &tableBuilder{
		path: path,
		f:    f,
		buf:  make([]byte, 0, tableWriteBuf),
		keys: make([]byte, 0, keyBytes),
		ents: make([]tableEntry, 0, n),
	}, nil
}

// addRecord appends one record to b, whose key must sort after the last
// one's, and returns its encoded size.
func addRecord[V string | []byte](b *tableBuilder, key string, value V, tomb bool) (int, error) {
	if len(value) > maxRecord || len(b.keys)+len(key) > math.MaxUint32 {
		return 0, fmt.Errorf("ldb: table %s: record of key %q too large", b.path, key)
	}
	start := len(b.buf)
	b.buf = appendRecord(b.buf, tomb, key, value)
	n := len(b.buf) - start
	b.keys = append(b.keys, key...)
	te := tableEntry{offset: b.off + int64(n-len(value)), keyEnd: uint32(len(b.keys)), vlen: uint32(len(value))}
	if tomb {
		te.vlen |= tombBit
	}
	b.ents = append(b.ents, te)
	b.off += int64(n)
	if len(b.buf) >= tableWriteBuf {
		if _, err := b.f.Write(b.buf); err != nil {
			return 0, fmt.Errorf("ldb: write table: %w", err)
		}
		b.buf = b.buf[:0]
	}
	return n, nil
}

// finish writes out and fsyncs the table, publishes it by rename and
// returns it open for reading with its index.
func (b *tableBuilder) finish(lo, hi int) (*sstable, error) {
	tmp := b.f.Name()
	if _, err := b.f.Write(b.buf); err != nil {
		b.abort()
		return nil, fmt.Errorf("ldb: write table: %w", err)
	}
	if err := b.f.Sync(); err != nil {
		b.abort()
		return nil, fmt.Errorf("ldb: sync table: %w", err)
	}
	if err := b.f.Close(); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("ldb: close table: %w", err)
	}
	if err := os.Rename(tmp, b.path); err != nil {
		return nil, fmt.Errorf("ldb: publish table: %w", err)
	}
	f, err := os.Open(b.path)
	if err != nil {
		return nil, fmt.Errorf("ldb: open table: %w", err)
	}
	return newTable(lo, hi, b.path, f, b.keys, b.ents, b.off), nil
}

// abort drops an unfinished table.
func (b *tableBuilder) abort() {
	b.f.Close()
	os.Remove(b.f.Name())
}

// record is the SSTable on-disk record.
type record struct {
	tomb  bool
	key   []byte
	value []byte
}

// appendRecord appends one encoded record to dst. Layout:
// crc32(body) | body, body = flags | klen | vlen | key | value, the
// lengths uvarints.
func appendRecord[V string | []byte](dst []byte, tomb bool, key string, value V) []byte {
	start := len(dst)
	var flags byte
	if tomb {
		flags = flagTomb
	}
	dst = append(dst, 0, 0, 0, 0, flags)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	binary.LittleEndian.PutUint32(dst[start:], crc32.ChecksumIEEE(dst[start+4:]))
	return dst
}

// readRecord reads one record of at most left bytes and returns it with
// its encoded size. Its key and value are read into *buf, grown as
// needed, and alias it until the next call. io.EOF means a clean end of
// input; any other error (including a record cut short by EOF, or one
// whose lengths run past the bytes left) marks a corrupt record.
func readRecord(r *bufio.Reader, left int64, buf *[]byte) (record, int, error) {
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		// io.ErrUnexpectedEOF: a few stray bytes where a record should
		// start.
		return record{}, 0, err
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	flags, err := r.ReadByte()
	if err != nil {
		return record{}, 0, fmt.Errorf("read flags: %w", err)
	}
	hdr[0] = flags
	n := 1
	klen, n, err := readUvarint(r, hdr[:], n)
	if err != nil {
		return record{}, 0, fmt.Errorf("read klen: %w", err)
	}
	vlen, n, err := readUvarint(r, hdr[:], n)
	if err != nil {
		return record{}, 0, fmt.Errorf("read vlen: %w", err)
	}
	if klen > maxRecord || vlen > maxRecord {
		return record{}, 0, fmt.Errorf("%w: record too large (klen=%d vlen=%d)", errCorrupt, klen, vlen)
	}
	total := 4 + n + int(klen) + int(vlen)
	if int64(total) > left {
		return record{}, 0, fmt.Errorf("%w: a record of %d bytes where %d are left", errCorrupt, total, left)
	}
	body := slices.Grow((*buf)[:0], int(klen+vlen))[:klen+vlen]
	*buf = body
	if _, err := io.ReadFull(r, body); err != nil {
		return record{}, 0, fmt.Errorf("read key and value: %w", err)
	}
	if crc32.Update(crc32.ChecksumIEEE(hdr[:n]), crc32.IEEETable, body) != want {
		return record{}, 0, fmt.Errorf("%w: crc mismatch", errCorrupt)
	}
	return record{tomb: flags&flagTomb != 0, key: body[:klen], value: body[klen:]}, total, nil
}

// readUvarint reads a uvarint byte by byte, recording each byte in
// hdr[n:], and returns it with the new end of hdr.
func readUvarint(r *bufio.Reader, hdr []byte, n int) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, n, err
		}
		hdr[n] = b
		n++
		if b < 0x80 {
			return x | uint64(b)<<s, n, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, n, fmt.Errorf("%w: uvarint overflows 64 bits", errCorrupt)
}

// Get implements engine.Engine.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if kv, ok := s.mem[key]; ok {
		s.mu.Unlock()
		if kv == "" {
			return nil, false, nil
		}
		return []byte(kv.Value()), true, nil
	}
	s.mu.Unlock()
	// Table reads run under tableMu's read lock rather than the writer
	// mutex, so cache misses hitting the disk never serialize the write
	// path; compaction retires files only under the write lock.
	h := keyHash(key)
	s.tableMu.RLock()
	defer s.tableMu.RUnlock()
	for i := len(s.tables) - 1; i >= 0; i-- {
		t := s.tables[i]
		te, ok := t.find(key, h)
		if !ok {
			continue
		}
		if te.tomb() {
			return nil, false, nil
		}
		v, err := s.readValue(t, te)
		if err != nil {
			return nil, false, err
		}
		return v, true, nil
	}
	return nil, false, nil
}

// readValue fetches one table value through the block cache. The
// returned slice is always a private copy.
func (s *Store) readValue(t *sstable, te tableEntry) ([]byte, error) {
	if s.cache != nil {
		if v, ok := s.cache.get(t, te.offset); ok {
			s.cacheHits.Add(1)
			out := make([]byte, len(v))
			copy(out, v)
			return out, nil
		}
		s.cacheMiss.Add(1)
	}
	v := make([]byte, te.length())
	if _, err := t.f.ReadAt(v, te.offset); err != nil {
		return nil, fmt.Errorf("ldb: read table %s: %w", t.path, err)
	}
	if s.cache != nil {
		s.cache.put(t, te.offset, v)
		out := make([]byte, len(v))
		copy(out, v)
		return out, nil
	}
	return v, nil
}

// Put stores value under key: it builds the KV and hands it to PutKV.
func (s *Store) Put(key string, value []byte) error {
	return s.PutKV(engine.MakeKV(key, value))
}

// PutKV implements engine.Engine: the memtable keeps kv itself.
func (s *Store) PutKV(kv engine.KV) error {
	return s.write([]engine.KV{kv}, "")
}

// PutBatch implements engine.Engine: the memtable keeps each KV itself.
func (s *Store) PutBatch(kvs []engine.KV) error {
	if len(kvs) == 0 {
		return nil
	}
	return s.write(kvs, "")
}

// Delete implements engine.Engine.
func (s *Store) Delete(key string) error {
	return s.write(nil, key)
}

// write applies kvs, or with no kvs a tombstone for deleted, to the
// memtable, and flushes it once it holds FlushThreshold keys.
func (s *Store) write(kvs []engine.KV, deleted string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if len(kvs) == 0 {
		s.mem[deleted] = ""
	}
	for _, kv := range kvs {
		s.mem[kv.Key()] = kv
	}
	if len(s.mem) >= s.opts.FlushThreshold {
		if err := s.flushLocked(); err != nil {
			return err
		}
		if len(s.tables) > s.opts.MaxTables {
			s.kickCompactLocked()
		}
	}
	if s.compactErr != nil {
		err := s.compactErr
		s.compactErr = nil
		return err
	}
	return nil
}

// Flush forces the memtable to an SSTable.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

// flushLocked writes the memtable out as a table in key order, its index
// built on the way, fsynced and published by rename.
func (s *Store) flushLocked() error {
	if len(s.mem) == 0 {
		return nil
	}
	keys := make([]string, 0, len(s.mem))
	keyBytes := 0
	for k := range s.mem {
		keys = append(keys, k)
		keyBytes += len(k)
	}
	slices.Sort(keys)
	seq := s.nextSeq
	b, err := createTable(filepath.Join(s.dir, tableName(seq, seq)), len(keys), keyBytes)
	if err != nil {
		return err
	}
	for _, k := range keys {
		kv := s.mem[k]
		if _, err := addRecord(b, k, kv.Value(), kv == ""); err != nil {
			b.abort()
			return err
		}
	}
	t, err := b.finish(seq, seq)
	if err != nil {
		return err
	}
	s.st.fsyncs++
	s.tableMu.Lock()
	s.tables = append(s.tables, t)
	s.tableMu.Unlock()
	s.nextSeq++
	s.mem = make(map[string]engine.KV)
	s.st.memtableFlushes++
	return nil
}

// kickCompactLocked schedules a background compaction if one is not
// already pending.
func (s *Store) kickCompactLocked() {
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
}

// compactLoop runs merges scheduled by kickCompactLocked until Close.
func (s *Store) compactLoop() {
	defer close(s.compactDone)
	for {
		select {
		case <-s.compactStop:
			return
		case <-s.compactCh:
		}
		if err := s.compactOnce(); err != nil {
			s.mu.Lock()
			if s.compactErr == nil {
				s.compactErr = err
			}
			s.mu.Unlock()
		}
	}
}

// mergeTables walks the union of tables' sorted indexes (tables oldest
// first) in key order and calls fn once per key, with the newest table
// holding it and the key's index there, until fn returns false.
func mergeTables(tables []*sstable, fn func(t *sstable, i int) bool) {
	pos := make([]int, len(tables))
	for {
		win, key := -1, ""
		for j := len(tables) - 1; j >= 0; j-- { // newest first: it keeps a tie
			if pos[j] == len(tables[j].ents) {
				continue
			}
			if k := tables[j].key(pos[j]); win < 0 || k < key {
				win, key = j, k
			}
		}
		if win < 0 {
			return
		}
		more := fn(tables[win], pos[win])
		for j, t := range tables {
			if pos[j] < len(t.ents) && t.key(pos[j]) == key {
				pos[j]++
			}
		}
		if !more {
			return
		}
	}
}

// compactOnce merges every table present at its start into one: a
// streaming merge of the inputs' sorted indexes in
// which, for each key, the newest record wins and a winning tombstone
// drops the key (there is nothing below the oldest table for one to
// shadow). Only one value is held at a time. The merge runs off the write
// lock: tables are immutable, new flushes only append, and merges are
// serialized by compactMu, so the captured prefix stays exactly the
// prefix of s.tables until the swap.
func (s *Store) compactOnce() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.tableMu.RLock()
	inputs := append([]*sstable(nil), s.tables...)
	s.tableMu.RUnlock()
	s.mu.Unlock()
	if len(inputs) <= 1 {
		return nil
	}

	lo, hi := inputs[0].lo, inputs[len(inputs)-1].hi
	path := filepath.Join(s.dir, tableName(lo, hi))
	b, err := createTable(path, 0, 0)
	if err != nil {
		return err
	}
	var (
		ioBytes int64
		val     []byte
		stopped bool
	)
	mergeTables(inputs, func(t *sstable, i int) bool {
		if s.stopping() {
			stopped = true
			return false
		}
		te := t.ents[i]
		if te.tomb() {
			return true
		}
		val = slices.Grow(val[:0], te.length())[:te.length()]
		if _, err = t.f.ReadAt(val, te.offset); err != nil {
			err = fmt.Errorf("ldb: compact read %s: %w", t.path, err)
			return false
		}
		ioBytes += int64(te.length())
		var n int
		if n, err = addRecord(b, t.key(i), val, false); err != nil {
			return false
		}
		ioBytes += int64(n)
		return true
	})
	if stopped || err != nil {
		b.abort()
		return err
	}
	// The rename is the commit point: reopening after a crash anywhere
	// past it sees the merged table superseding its inputs by range.
	merged, err := b.finish(lo, hi)
	if err != nil {
		return err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		merged.f.Close()
		return nil
	}
	s.tableMu.Lock()
	s.tables = append([]*sstable{merged}, s.tables[len(inputs):]...)
	s.st.compactions++
	s.st.compactionBytes += ioBytes
	s.st.fsyncs++
	s.mu.Unlock()
	// Retire inputs under tableMu's write lock: no reader can still hold
	// an RLock taken against the old stack, so closing is safe.
	for _, t := range inputs {
		if s.cache != nil {
			s.cache.dropTable(t)
		}
		t.f.Close()
		if t.path != path { // the merged table may reuse an input's name
			os.Remove(t.path)
		}
	}
	s.tableMu.Unlock()
	return nil
}

func (s *Store) stopping() bool {
	select {
	case <-s.compactStop:
		return true
	default:
		return false
	}
}

// Compact flushes the memtable and merges all SSTables into one,
// dropping overwritten versions and tombstones. Unlike the background
// compaction it is synchronous.
func (s *Store) Compact() error {
	if err := s.Flush(); err != nil {
		return err
	}
	return s.compactOnce()
}

// WaitCompaction blocks until no background compaction is pending or
// running. Tests use it to observe a settled table stack.
func (s *Store) WaitCompaction() {
	// Acquiring compactMu after draining the signal channel means any
	// merge that was running or pending has finished.
	for {
		select {
		case <-s.compactCh:
			if err := s.compactOnce(); err != nil {
				s.mu.Lock()
				if s.compactErr == nil {
					s.compactErr = err
				}
				s.mu.Unlock()
			}
			continue
		default:
		}
		s.compactMu.Lock()
		s.compactMu.Unlock() //nolint:staticcheck // barrier acquire
		select {
		case <-s.compactCh:
			continue
		default:
			return
		}
	}
}

// Checkpoint implements engine.Checkpointer: it flushes the memtable and
// publishes the entire table stack into dir as hard links (copies when
// the filesystem refuses links). The checkpoint is a
// self-contained LDB directory — Open on it yields exactly the state at
// the moment of the call — and stays intact even after later compactions
// unlink the source files, because the links pin the inodes.
func (s *Store) Checkpoint(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ldb: create checkpoint dir: %w", err)
	}
	// Clear any previous checkpoint content so stale tables cannot shadow
	// or resurrect state.
	old, err := filepath.Glob(filepath.Join(dir, sstPrefix+"*"+sstSuffix))
	if err != nil {
		return fmt.Errorf("ldb: scan checkpoint dir: %w", err)
	}
	for _, n := range old {
		if err := os.Remove(n); err != nil {
			return fmt.Errorf("ldb: clear checkpoint dir: %w", err)
		}
	}
	s.tableMu.RLock()
	defer s.tableMu.RUnlock()
	for _, t := range s.tables {
		dst := filepath.Join(dir, filepath.Base(t.path))
		if err := linkOrCopy(t.path, dst); err != nil {
			return fmt.Errorf("ldb: checkpoint table %s: %w", t.path, err)
		}
	}
	return nil
}

// Restore replaces dir with the checkpoint Checkpoint wrote into src, the
// step before Open on a cold restart: dir is wiped (what it held past the
// checkpoint is what replaying the log's tail regenerates, and restoring
// over it would apply that twice) and src's files are hard-linked into it,
// or copied where the filesystem refuses links. A src that does not exist
// leaves dir empty: the store held nothing when the checkpoint was taken.
func Restore(src, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("ldb: clear store dir: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ldb: create store dir: %w", err)
	}
	ents, err := os.ReadDir(src)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ldb: read checkpoint dir: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if err := linkOrCopy(filepath.Join(src, e.Name()), filepath.Join(dir, e.Name())); err != nil {
			return fmt.Errorf("ldb: restore %s: %w", e.Name(), err)
		}
	}
	return nil
}

// linkOrCopy hard-links src to dst, falling back to a full copy when the
// filesystem rejects links (e.g. across devices).
func linkOrCopy(src, dst string) error {
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Len implements engine.Engine.
func (s *Store) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	n := 0
	for _, kv := range s.mem {
		if kv != "" {
			n++
		}
	}
	s.tableMu.RLock()
	defer s.tableMu.RUnlock()
	mergeTables(s.tables, func(t *sstable, i int) bool {
		if _, shadowed := s.mem[t.key(i)]; !shadowed && !t.ents[i].tomb() {
			n++
		}
		return true
	})
	return n, nil
}

// Range implements engine.Engine: the memtable's KVs, then the tables'
// versions in key order, each key once at its newest version. A table's
// version is built into a fresh KV.
func (s *Store) Range(fn func(kv engine.KV) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for _, kv := range s.mem {
		if kv != "" && !fn(kv) {
			return nil
		}
	}
	s.tableMu.RLock()
	defer s.tableMu.RUnlock()
	var (
		err error
		val []byte
	)
	mergeTables(s.tables, func(t *sstable, i int) bool {
		k, te := t.key(i), t.ents[i]
		if _, shadowed := s.mem[k]; shadowed || te.tomb() {
			return true
		}
		val = slices.Grow(val[:0], te.length())[:te.length()]
		if _, err = t.f.ReadAt(val, te.offset); err != nil {
			err = fmt.Errorf("ldb: range read %s: %w", t.path, err)
			return false
		}
		return fn(engine.MakeKV(k, val))
	})
	return err
}

// TableCount returns the number of on-disk SSTables, for tests and
// monitoring.
func (s *Store) TableCount() int {
	s.tableMu.RLock()
	defer s.tableMu.RUnlock()
	return len(s.tables)
}

// EngineStats implements engine.StatsReporter.
func (s *Store) EngineStats() engine.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tableMu.RLock()
	defer s.tableMu.RUnlock()
	return engine.Stats{
		Fsyncs:           s.st.fsyncs,
		MemtableFlushes:  s.st.memtableFlushes,
		Compactions:      s.st.compactions,
		CompactionBytes:  s.st.compactionBytes,
		BlockCacheHits:   s.cacheHits.Load(),
		BlockCacheMisses: s.cacheMiss.Load(),
		RecoveryNanos:    s.st.recoveryNanos,
		Tables:           int64(len(s.tables)),
	}
}

// Crash simulates a process death for crash-recovery tests: background
// goroutines are stopped and file handles dropped with no flush — the
// memtable is lost, and the next Open sees exactly what a killed process
// would have left on disk. Unlike a real kill it does reclaim goroutines
// and descriptors, so tests can crash the same directory many times.
func (s *Store) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.stopAndCloseTables()
}

// Close implements engine.Engine: it publishes the memtable as a table
// (flushLocked, as Checkpoint does), so a clean shutdown followed by Open
// loses nothing, and closes every file.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	first := s.flushLocked()
	if first == nil {
		first = s.compactErr
	}
	s.closed = true
	s.mu.Unlock()
	if err := s.stopAndCloseTables(); first == nil {
		first = err
	}
	return first
}

// stopAndCloseTables stops the compactor of a store marked closed and
// closes its table files.
func (s *Store) stopAndCloseTables() error {
	close(s.compactStop)
	<-s.compactDone
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	var first error
	for _, t := range s.tables {
		if err := t.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
