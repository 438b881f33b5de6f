// Package wire is the binary framing layer of the network runtime: a
// length-prefixed frame format with varint headers and raw little-endian
// payloads, designed so both ends of a connection run allocation-free in
// steady state.
//
// Every frame is
//
//	uvarint(len(body)) · body
//	body = type byte · type-specific fields
//
// where multi-byte integers are unsigned varints and numeric bulk payloads
// are raw element bytes (float64 as IEEE-754 bits, field elements as
// uint32, both little-endian) prefixed by an element count; on
// little-endian hosts a bulk payload is encoded and decoded as one memory
// copy, and only big-endian hosts convert element by element. A Writer owns
// one scratch buffer reused across frames; a Reader owns one receive
// buffer plus a Payload cursor that decodes fields in place, so the only
// per-message cost is the copy into caller-owned storage (matrices, pooled
// result slices) — there is no intermediate message object.
//
// Connections open with a 5-byte handshake: the 4-byte magic "S2C2"
// followed by a version byte, which the accepting side checks against
// VersionWire before reading any frame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// VersionWire is the handshake version of this frame format. Version 2
// carries the element kind, job id and width on every Work and Result
// frame; versions 0 (gob envelopes) and 1 (per-element, per-width frame
// types) are retired and rejected.
const VersionWire byte = 2

// magic opens every connection, before the version byte.
var magic = [4]byte{'S', '2', 'C', '2'}

// ErrBadMagic reports a handshake that does not start with the protocol
// magic.
var ErrBadMagic = errors.New("wire: bad handshake magic")

// WriteHandshake sends the magic and version. The dialing side calls it
// exactly once, before any frame.
func WriteHandshake(w io.Writer, version byte) error {
	var hs [5]byte
	copy(hs[:], magic[:])
	hs[4] = version
	_, err := w.Write(hs[:])
	return err
}

// ReadHandshake consumes and validates the magic, returning the peer's
// version byte. Callers decide which versions they accept.
func ReadHandshake(r io.Reader) (byte, error) {
	var hs [5]byte
	if _, err := io.ReadFull(r, hs[:]); err != nil {
		return 0, fmt.Errorf("wire: handshake: %w", err)
	}
	if [4]byte(hs[:4]) != magic {
		return 0, ErrBadMagic
	}
	return hs[4], nil
}

// Type discriminates frames. The zero value is invalid so a zeroed frame
// can never masquerade as a message.
type Type byte

// Frame types of the master↔worker protocol. Work, Result and the
// partition stream carry an element kind (float64 or GF(2³¹−1) field
// elements); acks are shared (a PartitionAck credits whichever transfer
// its sequence number fences).
const (
	TypeHello          Type = 1 + iota // worker → master: join
	TypeWork                           // master → worker: row assignment over w x-vectors
	TypeResult                         // worker → master: computed rows, w values per row
	TypePartitionStart                 // master → worker: begin streamed partition
	TypePartitionChunk                 // master → worker: one row band
	TypePartitionAck                   // worker → master: chunk stored (credit return)
	TypeShutdown                       // master → worker: exit
	TypePing                           // master → worker: liveness probe (empty body)
	TypePong                           // worker → master: liveness answer (empty body)
)

// Elem names the numeric type of a frame's bulk payload.
type Elem byte

// Element kinds. The zero value is invalid, like the zero Type.
const (
	ElemFloat64 Elem = 1 + iota // IEEE-754 float64
	ElemGF                      // GF(2³¹−1) field element as uint32
)

// Number is the element constraint of the bulk payload helpers: 8-byte
// elements travel as float64 bits, 4-byte ones as uint32 lanes.
type Number interface{ ~float64 | ~uint32 }

// KindOf reports the element kind E travels as.
//
//s2c2:noalloc
func KindOf[E Number]() Elem {
	var z E
	if unsafe.Sizeof(z) == 8 {
		return ElemFloat64
	}
	return ElemGF
}

// DefaultMaxFrame bounds accepted frame bodies. Partitions are streamed in
// bounded chunks, so legitimate frames are far smaller; the limit exists to
// reject corrupt or hostile length prefixes before any buffer is sized to
// them.
const DefaultMaxFrame = 64 << 20

// Frame decode errors. These are sentinel values (not fmt-wrapped per
// message) so the receive path stays allocation-free.
var (
	// ErrFrameTooBig reports a length prefix above the reader's limit.
	ErrFrameTooBig = errors.New("wire: frame exceeds size limit")
	// ErrTruncated reports a payload shorter than its fields claim.
	ErrTruncated = errors.New("wire: truncated frame payload")
	// ErrMalformed reports an undecodable varint or corrupt field.
	ErrMalformed = errors.New("wire: malformed frame")
)

// Writer frames messages onto an io.Writer through one reused scratch
// buffer: Begin starts a frame, the append methods build its body, End
// length-prefixes and writes it. The body is built after a reserved header
// region so the finished frame (prefix + body) goes out in a single Write.
// Writers are not safe for concurrent use; the rpc layer serializes sends
// per connection.
type Writer struct {
	w    io.Writer
	buf  []byte // reserved header space, then the frame body
	head [binary.MaxVarintLen64]byte
}

// headReserve is the space kept ahead of the body for the length prefix.
const headReserve = binary.MaxVarintLen64

// NewWriter returns a Writer framing onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Reset points the Writer at a new destination, keeping its buffer.
func (w *Writer) Reset(dst io.Writer) { w.w = dst }

// Begin starts a frame of the given type, discarding any unfinished frame.
//
//s2c2:noalloc
func (w *Writer) Begin(t Type) {
	w.buf = growBytes(w.buf[:0], headReserve)
	// Amortized: w.buf keeps its capacity across frames, so this append
	// only grows on the very first frame.
	//s2c2:waive noalloc
	w.buf = append(w.buf, byte(t))
}

// Uvarint appends an unsigned varint field.
//
//s2c2:noalloc
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Int appends a non-negative int as a varint.
//
//s2c2:noalloc
func (w *Writer) Int(v int) { w.Uvarint(uint64(v)) }

// Float64 appends one float64 as raw IEEE-754 bits.
//
//s2c2:noalloc
func (w *Writer) Float64(v float64) {
	at := len(w.buf)
	w.buf = growBytes(w.buf, at+8)
	binary.LittleEndian.PutUint64(w.buf[at:], math.Float64bits(v))
}

// PutElems appends a count-prefixed payload of raw element bits: float64
// as IEEE-754 bits, uint32 lanes as they are, both little-endian.
//
//s2c2:noalloc
func PutElems[E Number](w *Writer, vs []E) {
	w.Uvarint(uint64(len(vs)))
	if KindOf[E]() == ElemFloat64 {
		w.putFloat64s(lanes[float64](vs))
	} else {
		w.putUint32s(lanes[uint32](vs))
	}
}

// putFloat64s appends vs as little-endian IEEE-754 bits.
//
//s2c2:noalloc
func (w *Writer) putFloat64s(vs []float64) {
	at := len(w.buf)
	w.buf = growBytes(w.buf, at+8*len(vs))
	if hostLittleEndian {
		copy(w.buf[at:], bytesOf(vs))
		return
	}
	loopPutFloat64s(w.buf[at:], vs)
}

// putUint32s appends vs as little-endian uint32s.
//
//s2c2:noalloc
func (w *Writer) putUint32s(vs []uint32) {
	at := len(w.buf)
	w.buf = growBytes(w.buf, at+4*len(vs))
	if hostLittleEndian {
		copy(w.buf[at:], bytesOf(vs))
		return
	}
	loopPutUint32s(w.buf[at:], vs)
}

// loopPutFloat64s encodes vs into b one element at a time: the payload
// encoder of big-endian hosts.
//
//s2c2:noalloc
func loopPutFloat64s(b []byte, vs []float64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

// loopPutUint32s is loopPutFloat64s for uint32 lanes.
//
//s2c2:noalloc
func loopPutUint32s(b []byte, vs []uint32) {
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
}

// bytesOf views vs as its raw memory, without copying. On little-endian
// hosts those bytes are exactly the wire encoding.
//
//s2c2:noalloc
func bytesOf[T Number](vs []T) []byte {
	var z T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs)*int(unsafe.Sizeof(z)))
}

// lanes views vs as its underlying scalar type T without copying; callers
// pick T by KindOf, so the element sizes (and representations) match. The
// payload loops run over the view in plain (non-generic) functions, which
// compile tighter than loops over a type parameter.
//
//s2c2:noalloc
func lanes[T, E Number](vs []E) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs))
}

// PendingBytes reports the size of the frame under construction (callers
// use it to scale write deadlines with the payload).
func (w *Writer) PendingBytes() int { return len(w.buf) }

// End writes the frame started by Begin — the body's length prefix
// followed by the body — as one Write call. The scratch buffer is retained
// for the next frame.
//
//s2c2:noalloc
func (w *Writer) End() error {
	body := len(w.buf) - headReserve
	n := binary.PutUvarint(w.head[:], uint64(body))
	start := headReserve - n
	copy(w.buf[start:], w.head[:n])
	_, err := w.w.Write(w.buf[start:])
	return err
}

// Reader decodes frames from an io.Reader through one reused receive
// buffer. Not safe for concurrent use.
type Reader struct {
	r        io.Reader
	buf      []byte
	pay      Payload
	maxFrame int
	// one-byte scratch for the length prefix (readByte without a bufio
	// layer's allocation).
	b [1]byte
}

// NewReader returns a Reader with the DefaultMaxFrame limit.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, maxFrame: DefaultMaxFrame}
}

// SetMaxFrame overrides the accepted frame-body limit.
func (r *Reader) SetMaxFrame(n int) { r.maxFrame = n }

// Reset points the Reader at a new source, keeping its buffers.
func (r *Reader) Reset(src io.Reader) { r.r = src }

// ReadByte reads one length-prefix byte. It exists so binary.ReadUvarint
// can consume the prefix through the Reader itself without an adapter
// allocation; wrap network sources in a bufio.Reader (as the rpc layer
// does) to avoid single-byte reads hitting the kernel.
//
//s2c2:noalloc
func (r *Reader) ReadByte() (byte, error) {
	if br, ok := r.r.(io.ByteReader); ok {
		return br.ReadByte()
	}
	_, err := io.ReadFull(r.r, r.b[:1])
	return r.b[0], err
}

// Next reads one frame, returning its type and a Payload cursor over the
// body. The cursor (and any byte view it exposes) is valid only until the
// next call to Next.
//
//s2c2:noalloc
func (r *Reader) Next() (Type, *Payload, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, err
	}
	if size > uint64(r.maxFrame) {
		return 0, nil, ErrFrameTooBig
	}
	if size < 1 {
		return 0, nil, ErrMalformed // a frame has at least its type byte
	}
	r.buf = growBytes(r.buf, int(size))
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	r.pay = Payload{b: r.buf[1:]}
	return Type(r.buf[0]), &r.pay, nil
}

// Payload is a decode cursor over one frame body. Decoding methods record
// the first failure in a sticky error — callers run the field reads
// straight through and check Err once at the end. All sticky errors are
// package sentinels, so the error path allocates nothing.
//
// The cursor aliases the Reader's reused frame buffer: it is only valid
// until the next call to Next. s2c2-vet (payloadescape) rejects stores
// that would let it outlive the frame.
//
//s2c2:frame-scoped
type Payload struct {
	b   []byte
	off int
	err error
}

// Err returns the first decode failure, or nil.
func (p *Payload) Err() error { return p.err }

// Remaining reports the undecoded byte count.
func (p *Payload) Remaining() int { return len(p.b) - p.off }

// Reject marks the payload malformed. Decoders use it when a structurally
// valid field fails a higher-level invariant (e.g. an element count that
// cannot fit in the remaining bytes) so the failure surfaces through the
// same sticky-error path as raw decode errors.
func (p *Payload) Reject() {
	if p.err == nil {
		p.err = ErrMalformed
	}
}

// Float64 decodes one float64 field (0 after a failure).
//
//s2c2:noalloc
func (p *Payload) Float64() float64 {
	if p.err != nil {
		return 0
	}
	if p.Remaining() < 8 {
		p.err = ErrTruncated
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p.b[p.off:]))
	p.off += 8
	return v
}

// Uvarint decodes one varint field (0 after a failure).
//
//s2c2:noalloc
func (p *Payload) Uvarint() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		if n == 0 {
			p.err = ErrTruncated
		} else {
			p.err = ErrMalformed
		}
		return 0
	}
	p.off += n
	return v
}

// Int decodes a non-negative int field. Values above MaxInt/2 for the
// platform's int are rejected, so the result is always safe to use in
// size arithmetic.
//
//s2c2:noalloc
func (p *Payload) Int() int {
	v := p.Uvarint()
	if p.err == nil && v > math.MaxInt/2 {
		p.err = ErrMalformed
		return 0
	}
	return int(v)
}

// Elems decodes a count-prefixed element payload, reusing dst's capacity
// (the caller-owned buffer idiom: pass last round's slice back in and
// steady state never reallocates). The count is validated against the
// remaining bytes by division — never by multiplication, which a hostile
// count could overflow into passing — before anything is sized to it.
//
//s2c2:noalloc
func Elems[E Number](p *Payload, dst []E) []E {
	n := p.Int()
	if p.err != nil {
		return dst[:0]
	}
	var z E
	if n > p.Remaining()/int(unsafe.Sizeof(z)) {
		p.err = ErrTruncated
		return dst[:0]
	}
	dst = grow(dst, n)
	elemsInto(p, dst)
	return dst
}

// ElemsInto decodes a count-prefixed element payload directly into dst,
// requiring the count to match len(dst) exactly — the zero-copy path for
// writing a partition chunk straight into its matrix rows.
//
//s2c2:noalloc
func ElemsInto[E Number](p *Payload, dst []E) error {
	n := p.Int()
	if p.err != nil {
		return p.err
	}
	if n != len(dst) {
		p.err = ErrMalformed
		return p.err
	}
	var z E
	if n > p.Remaining()/int(unsafe.Sizeof(z)) {
		p.err = ErrTruncated
		return p.err
	}
	elemsInto(p, dst)
	return p.err
}

// elemsInto decodes len(dst) elements the caller has bounds-checked.
//
//s2c2:noalloc
func elemsInto[E Number](p *Payload, dst []E) {
	if KindOf[E]() == ElemFloat64 {
		p.float64sInto(lanes[float64](dst))
	} else {
		p.uint32sInto(lanes[uint32](dst))
	}
}

// float64sInto decodes len(dst) little-endian float64s.
//
//s2c2:noalloc
func (p *Payload) float64sInto(dst []float64) {
	b := p.b[p.off : p.off+8*len(dst)]
	if hostLittleEndian {
		copy(bytesOf(dst), b)
	} else {
		loopFloat64s(dst, b)
	}
	p.off += len(b)
}

// uint32sInto decodes len(dst) little-endian uint32s.
//
//s2c2:noalloc
func (p *Payload) uint32sInto(dst []uint32) {
	b := p.b[p.off : p.off+4*len(dst)]
	if hostLittleEndian {
		copy(bytesOf(dst), b)
	} else {
		loopUint32s(dst, b)
	}
	p.off += len(b)
}

// loopFloat64s decodes b into dst one element at a time: the payload
// decoder of big-endian hosts.
//
//s2c2:noalloc
func loopFloat64s(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// loopUint32s is loopFloat64s for uint32 lanes.
//
//s2c2:noalloc
func loopUint32s(dst []uint32, b []byte) {
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
}

// growBytes returns s with length n, reallocating only when capacity is
// insufficient (geometric growth via append).
//
//s2c2:noalloc
func growBytes(s []byte, n int) []byte {
	if cap(s) >= n {
		return s[:n]
	}
	// Capacity growth: reached only until the buffer has seen the largest
	// frame, after which every call takes the branch above.
	//s2c2:waive noalloc
	return append(s[:cap(s)], make([]byte, n-cap(s))...)
}

// grow is the package-local grow-don't-copy helper (this package stays
// dependency-free by design, so it does not import the kernel package's
// GrowSlice). Contents are unspecified after a reallocation.
//
//s2c2:noalloc
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	// Capacity growth; callers reuse the returned slice across frames.
	//s2c2:waive noalloc
	return make([]T, n)
}
