// Package snap is the binary codec under the simulator's checkpoint
// files: a varint-based Writer/Reader pair with latched errors and a
// running FNV-64a checksum over every payload byte, so a truncated or
// bit-flipped snapshot is detected before (bounds checks during decode)
// or at (checksum trailer) the end of a restore — never by a panic.
//
// The encoding is deliberately simple: unsigned values are uvarints,
// signed values are zigzag varints, float64s are 8 little-endian bytes
// of their IEEE-754 bits, and bools are one byte. Sections of a snapshot
// are introduced by one-byte tags (see internal/core's checkpoint format
// table in DESIGN.md), which makes decode mismatches fail fast with a
// named section instead of silently misaligning the stream.
package snap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Saver is implemented by components that can serialise their dynamic
// state into a checkpoint. Errors are latched into the Writer.
type Saver interface {
	SaveState(w *Writer)
}

// Loader is the inverse of Saver: restore dynamic state from a
// checkpoint. Errors are latched into the Reader; implementations must
// bounds-check every decoded value (the stream may be corrupt) and must
// never panic on bad input.
type Loader interface {
	LoadState(r *Reader)
}

// Finisher is implemented by components whose restore has a
// non-constant-cost step (e.g. replaying a random stream to its saved
// position). LoadState must only record the cheap decoded state;
// FinishLoad performs the expensive part and is called only after the
// snapshot's checksum has been verified, so corrupt input can never
// drive an unbounded replay.
type Finisher interface {
	FinishLoad() error
}

// ErrChecksum reports a snapshot whose checksum trailer does not match
// its payload.
var ErrChecksum = errors.New("snap: checksum mismatch (corrupt or truncated snapshot)")

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Writer encodes a snapshot. All methods are no-ops once an error is
// latched; check Err (or the error returned by Finish) once at the end.
type Writer struct {
	w   *bufio.Writer
	sum uint64
	err error
	buf [binary.MaxVarintLen64]byte
}

// NewWriter starts a snapshot on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), sum: fnvOffset}
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	for _, b := range p {
		w.sum = (w.sum ^ uint64(b)) * fnvPrime
	}
	if _, err := w.w.Write(p); err != nil {
		w.err = err
	}
}

// Raw writes p verbatim (still checksummed).
func (w *Writer) Raw(p []byte) { w.write(p) }

// Tag writes a one-byte section tag.
func (w *Writer) Tag(t byte) { w.write([]byte{t}) }

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) {
	n := binary.PutUvarint(w.buf[:], v)
	w.write(w.buf[:n])
}

// I64 writes a signed (zigzag) varint.
func (w *Writer) I64(v int64) {
	n := binary.PutVarint(w.buf[:], v)
	w.write(w.buf[:n])
}

// Int writes a non-negative int as an unsigned varint — the encoding
// counterpart of Reader.Len. Negative values latch an error.
func (w *Writer) Int(v int) {
	if v < 0 {
		w.Fail(fmt.Errorf("snap: negative count %d", v))
		return
	}
	w.U64(uint64(v))
}

// Bool writes one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.write([]byte{b})
}

// F64 writes the IEEE-754 bits of v, little-endian.
func (w *Writer) F64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.write(b[:])
}

// Fail latches an error (e.g. "component does not support checkpointing").
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Err returns the first error latched so far.
func (w *Writer) Err() error { return w.err }

// Finish appends the checksum trailer (8 fixed little-endian bytes over
// everything written so far, themselves unhashed), flushes, and returns
// the first error encountered.
func (w *Writer) Finish() error {
	if w.err != nil {
		return w.err
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], w.sum)
	if _, err := w.w.Write(b[:]); err != nil {
		return err
	}
	return w.w.Flush()
}

// Reader decodes a snapshot. All getters return zero values once an
// error is latched; check Err after each section (or rely on the final
// Verify). Decoders must bounds-check with the limits the owner set.
type Reader struct {
	r   *bufio.Reader
	sum uint64
	err error

	// Decode-time limits, set by the snapshot's owner before handing the
	// Reader to component Loaders: the core count and dense-page universe
	// of the simulation being restored, and the most random numbers any
	// one stream can have drawn by the snapshot's tick. Limits of 0 mean
	// "no cores" / "no pages" / "no draws" respectively — a core or page
	// index is valid only below its limit, a draw count up to its limit.
	MaxCores uint64
	MaxPages uint64
	MaxDraws uint64
	// Tick is the tick the snapshot was taken at, for loaders whose
	// state holds ticks still to come.
	Tick uint64
}

// NewReader starts decoding a snapshot from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r), sum: fnvOffset}
}

// ReadByte implements io.ByteReader over the checksummed stream.
func (r *Reader) ReadByte() (byte, error) {
	if r.err != nil {
		return 0, r.err
	}
	b, err := r.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = err
		return 0, err
	}
	r.sum = (r.sum ^ uint64(b)) * fnvPrime
	return b, nil
}

func (r *Reader) read(p []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = err
		return false
	}
	for _, b := range p {
		r.sum = (r.sum ^ uint64(b)) * fnvPrime
	}
	return true
}

// Raw reads len(p) verbatim bytes.
func (r *Reader) Raw(p []byte) { r.read(p) }

// Tag consumes a one-byte section tag and fails unless it matches want.
func (r *Reader) Tag(want byte, section string) {
	b, err := r.ReadByte()
	if err != nil {
		return
	}
	if b != want {
		r.Failf("snap: bad tag 0x%02x for section %q (want 0x%02x)", b, section, want)
	}
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r)
	if err != nil && r.err == nil {
		r.err = err
	}
	return v
}

// I64 reads a signed (zigzag) varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r)
	if err != nil && r.err == nil {
		r.err = err
	}
	return v
}

// Int reads an int written by Writer.Int; prefer Len, which also
// enforces an upper bound.
func (r *Reader) Int() int { return int(r.U64()) }

// Bool reads one byte and fails on anything but 0 or 1.
func (r *Reader) Bool() bool {
	b, err := r.ReadByte()
	if err != nil {
		return false
	}
	if b > 1 {
		r.Failf("snap: bad bool byte 0x%02x", b)
		return false
	}
	return b == 1
}

// F64 reads the IEEE-754 bits written by Writer.F64.
func (r *Reader) F64() float64 {
	var b [8]byte
	if !r.read(b[:]) {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// Len reads a non-negative count and fails when it exceeds max — the
// guard that keeps corrupt snapshots from driving huge allocations or
// replays before the checksum is reached.
func (r *Reader) Len(max int, what string) int {
	v := r.U64()
	if r.err != nil {
		return 0
	}
	if max < 0 || v > uint64(max) {
		r.Failf("snap: %s count %d exceeds limit %d", what, v, max)
		return 0
	}
	return int(v)
}

// Core reads a core index and fails when it is out of range.
func (r *Reader) Core() uint64 {
	v := r.U64()
	if r.err == nil && v >= r.MaxCores {
		r.Failf("snap: core index %d out of range (cores: %d)", v, r.MaxCores)
		return 0
	}
	return v
}

// Page reads a dense page ID and fails when it is out of range.
func (r *Reader) Page() uint64 {
	v := r.U64()
	if r.err == nil && v >= r.MaxPages {
		r.Failf("snap: page %d out of range (universe: %d)", v, r.MaxPages)
		return 0
	}
	return v
}

// Fail latches an error.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Failf latches a formatted error.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first error latched so far.
func (r *Reader) Err() error { return r.err }

// Verify consumes the checksum trailer and compares it to the running
// sum over everything read, returning the latched error or ErrChecksum.
func (r *Reader) Verify() error {
	if r.err != nil {
		return r.err
	}
	want := r.sum // capture before the (unhashed) trailer read
	var b [8]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = err
		return err
	}
	if binary.LittleEndian.Uint64(b[:]) != want {
		r.err = ErrChecksum
		return ErrChecksum
	}
	return nil
}
