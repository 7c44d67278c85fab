package statecodec

// Exported wire-byte primitives. The cluster wire codec
// (internal/cluster) frames its payloads with the same conventions as the
// state codecs in this package — uvarint-prefixed strings, little-endian
// 64-bit floats, payload-bounded counts — so the primitives are exported
// here rather than duplicated. The error-on-corruption contract matches
// the internal readers: a short or lying prefix returns an error, never a
// panic or an over-read.

// AppendString appends a uvarint length prefix followed by the bytes of s.
func AppendString(buf []byte, s string) []byte { return appendString(buf, s) }

// ReadString decodes a uvarint-prefixed string, returning the string, the
// remaining bytes, and an error naming `what` on corruption.
func ReadString(b []byte, what string) (string, []byte, error) { return readString(b, what) }

// ReadUvarint reads a uvarint in its shortest form and reports its width,
// or 0 when it is truncated, overflows 64 bits or is padded.
func ReadUvarint(b []byte) (uint64, int) { return readUvarint(b) }

// AppendFloat appends v as little-endian IEEE-754 bits.
func AppendFloat(buf []byte, v float64) []byte { return appendFloat(buf, v) }

// ReadFloat decodes a little-endian float64.
func ReadFloat(b []byte, what string) (float64, []byte, error) { return readFloat(b, what) }

// ReadCount decodes a uvarint element count, rejecting counts larger than
// the remaining payload (each encoded element occupies at least a byte).
func ReadCount(b []byte, what string) (int, []byte, error) { return readCount(b, what) }

// TypeAction is the type byte of the action record applications publish
// into TDAccess. Its payload layout belongs to the topology package
// (topology.EncodeAction); the byte is declared here so it cannot
// collide with a status-data type.
const TypeAction = 'A'

// AppendHeader appends the three-byte binary header for typ.
func AppendHeader(buf []byte, typ byte) []byte { return header(buf, typ) }

// CheckHeader validates the three-byte binary header for typ and returns
// the payload behind it.
func CheckHeader(b []byte, typ byte, what string) ([]byte, error) { return checkHeader(b, typ, what) }
