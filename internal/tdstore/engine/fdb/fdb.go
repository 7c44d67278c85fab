// Package fdb implements TDStore's File DataBase (FDB) storage engine
// (§3.3): a simple durable key-value store that hashes keys across a fixed
// set of append-only bucket log files.
//
// Every write is appended sequentially to its bucket's log; the full live
// map is kept resident, so reads never touch disk. Opening a store replays
// the bucket logs; when a bucket accumulates too many dead records it is
// rewritten in place. FDB trades memory for simplicity relative to LDB and
// suits the small-but-durable status data of the recommendation pipeline.
package fdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"
)

const (
	numBuckets = 64
	flagTomb   = 1
	maxRecord  = 64 << 20
	// compactFactor triggers a bucket rewrite when its log holds this
	// many times more records than live keys.
	compactFactor = 4
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("fdb: store is closed")

type bucket struct {
	mu      sync.RWMutex
	path    string
	f       *os.File
	w       *bufio.Writer
	live    map[string][]byte
	records int // total records in the log, live or dead
}

// Store is an FDB engine instance rooted at a directory.
type Store struct {
	dir     string
	buckets [numBuckets]*bucket
	closed  sync.Once
	dead    bool
	mu      sync.RWMutex // guards dead
}

// Open opens (creating if necessary) an FDB store in dir and replays the
// bucket logs.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fdb: create dir: %w", err)
	}
	s := &Store{dir: dir}
	for i := range s.buckets {
		b := &bucket{
			path: filepath.Join(dir, fmt.Sprintf("bucket-%02d.log", i)),
			live: make(map[string][]byte),
		}
		if err := b.replay(); err != nil {
			return nil, err
		}
		if err := b.open(); err != nil {
			return nil, err
		}
		s.buckets[i] = b
	}
	return s, nil
}

func (b *bucket) replay() error {
	f, err := os.Open(b.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fdb: open bucket: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		tomb, key, value, err := readRecord(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			// Torn tail after a crash: keep what we recovered.
			return nil
		}
		b.records++
		if tomb {
			delete(b.live, key)
		} else {
			b.live[key] = value
		}
	}
}

func (b *bucket) open() error {
	f, err := os.OpenFile(b.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("fdb: open bucket for append: %w", err)
	}
	b.f = f
	b.w = bufio.NewWriter(f)
	return nil
}

// writeRecord appends one record: crc32(body) | body,
// body = flags | klen | key | vlen | value.
func writeRecord(w io.Writer, tomb bool, key string, value []byte) error {
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	i := 0
	if tomb {
		hdr[i] = flagTomb
	}
	i++
	i += binary.PutUvarint(hdr[i:], uint64(len(key)))
	i += binary.PutUvarint(hdr[i:], uint64(len(value)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:i])
	crc.Write([]byte(key))
	crc.Write(value)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc.Sum32())
	for _, part := range [][]byte{crcBuf[:], hdr[:i], []byte(key), value} {
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}

func readRecord(r *bufio.Reader) (tomb bool, key string, value []byte, err error) {
	var crcBuf [4]byte
	if _, err = io.ReadFull(r, crcBuf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return false, "", nil, err
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	crc := crc32.NewIEEE()
	flags, err := r.ReadByte()
	if err != nil {
		return false, "", nil, fmt.Errorf("read flags: %w", err)
	}
	crc.Write([]byte{flags})
	klen, err := readUvarintCRC(r, crc)
	if err != nil {
		return false, "", nil, fmt.Errorf("read klen: %w", err)
	}
	vlen, err := readUvarintCRC(r, crc)
	if err != nil {
		return false, "", nil, fmt.Errorf("read vlen: %w", err)
	}
	if klen > maxRecord || vlen > maxRecord {
		return false, "", nil, fmt.Errorf("record too large")
	}
	kb := make([]byte, klen)
	if _, err = io.ReadFull(r, kb); err != nil {
		return false, "", nil, fmt.Errorf("read key: %w", err)
	}
	crc.Write(kb)
	value = make([]byte, vlen)
	if _, err = io.ReadFull(r, value); err != nil {
		return false, "", nil, fmt.Errorf("read value: %w", err)
	}
	crc.Write(value)
	if crc.Sum32() != want {
		return false, "", nil, fmt.Errorf("crc mismatch")
	}
	return flags&flagTomb != 0, string(kb), value, nil
}

func readUvarintCRC(r *bufio.Reader, crc io.Writer) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		crc.Write([]byte{b})
		if b < 0x80 {
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("uvarint overflows 64 bits")
}

func (s *Store) bucketFor(key string) *bucket {
	h := fnv.New32a()
	io.WriteString(h, key)
	return s.buckets[h.Sum32()%numBuckets]
}

func (s *Store) check() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.dead {
		return ErrClosed
	}
	return nil
}

// Get implements engine.Engine.
func (s *Store) Get(key string) ([]byte, bool, error) {
	if err := s.check(); err != nil {
		return nil, false, err
	}
	b := s.bucketFor(key)
	b.mu.RLock()
	defer b.mu.RUnlock()
	v, ok := b.live[key]
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true, nil
}

// Put implements engine.Engine: the live map keeps value itself.
func (s *Store) Put(key string, value []byte) error {
	if err := s.check(); err != nil {
		return err
	}
	b := s.bucketFor(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := writeRecord(b.w, false, key, value); err != nil {
		return fmt.Errorf("fdb: append: %w", err)
	}
	if err := b.w.Flush(); err != nil {
		return fmt.Errorf("fdb: flush: %w", err)
	}
	b.live[key] = value
	b.records++
	return b.maybeCompact()
}

// PutBatch implements engine.Engine: one Put per key.
func (s *Store) PutBatch(keys []string, values [][]byte) error {
	for i, k := range keys {
		if err := s.Put(k, values[i]); err != nil {
			return err
		}
	}
	return nil
}

// Delete implements engine.Engine.
func (s *Store) Delete(key string) error {
	if err := s.check(); err != nil {
		return err
	}
	b := s.bucketFor(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.live[key]; !ok {
		return nil
	}
	if err := writeRecord(b.w, true, key, nil); err != nil {
		return fmt.Errorf("fdb: append tombstone: %w", err)
	}
	if err := b.w.Flush(); err != nil {
		return fmt.Errorf("fdb: flush: %w", err)
	}
	delete(b.live, key)
	b.records++
	return b.maybeCompact()
}

// maybeCompact rewrites the bucket log when dead records dominate.
// Caller holds b.mu.
func (b *bucket) maybeCompact() error {
	if b.records < 128 || b.records < compactFactor*(len(b.live)+1) {
		return nil
	}
	return b.compact()
}

// compact rewrites the bucket with only live records. Caller holds b.mu.
func (b *bucket) compact() error {
	tmp := b.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("fdb: compact create: %w", err)
	}
	w := bufio.NewWriter(f)
	for k, v := range b.live {
		if err := writeRecord(w, false, k, v); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("fdb: compact write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("fdb: compact flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("fdb: compact sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fdb: compact close: %w", err)
	}
	b.w.Flush()
	b.f.Close()
	if err := os.Rename(tmp, b.path); err != nil {
		return fmt.Errorf("fdb: compact publish: %w", err)
	}
	b.records = len(b.live)
	return b.open()
}

// Len implements engine.Engine.
func (s *Store) Len() (int, error) {
	if err := s.check(); err != nil {
		return 0, err
	}
	n := 0
	for _, b := range s.buckets {
		b.mu.RLock()
		n += len(b.live)
		b.mu.RUnlock()
	}
	return n, nil
}

// Range implements engine.Engine.
func (s *Store) Range(fn func(key string, value []byte) bool) error {
	if err := s.check(); err != nil {
		return err
	}
	for _, b := range s.buckets {
		b.mu.RLock()
		for k, v := range b.live {
			if !fn(k, v) {
				b.mu.RUnlock()
				return nil
			}
		}
		b.mu.RUnlock()
	}
	return nil
}

// Close implements engine.Engine.
func (s *Store) Close() error {
	var first error
	s.closed.Do(func() {
		s.mu.Lock()
		s.dead = true
		s.mu.Unlock()
		for _, b := range s.buckets {
			b.mu.Lock()
			if err := b.w.Flush(); err != nil && first == nil {
				first = err
			}
			if err := b.f.Close(); err != nil && first == nil {
				first = err
			}
			b.mu.Unlock()
		}
	})
	return first
}
