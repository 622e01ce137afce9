// Per-connection framing with an optional flate entropy stage. Every
// message is one [4-byte big-endian length | type | payload] frame, and a
// non-zero flate level (the coordinator's WireMsg) lets the framer replace the payload with a
// compressed form (type byte ORed with frameCompressed, payload = uvarint
// declared raw length + one flushed chunk of the connection's deflate
// stream).
//
// Compression is streaming: each direction keeps ONE deflate stream alive
// for the connection's lifetime and emits a sync-flushed chunk per frame,
// so the compressor's 32 KiB window carries across frames. That is where
// most of the win comes from — consecutive epochs repeat program text,
// trace shapes and state layouts almost verbatim, and the window turns
// those repeats into back-references a per-frame compressor could never
// see. The chunking rule is a pure function of the payload length (frames
// under compressMinBytes bypass the stream entirely), so sender and
// receiver window states stay in lockstep by construction.
//
// All scratch — the assembled outbound frame, the compressor, the inbound
// payload and inflate buffers — is pooled per connection, so the per-epoch
// hot path (encode delta, compress, write; read, inflate, decode) is
// allocation-free in steady state. The declared raw length is checked
// against the frame payload cap before touching the stream, so a corrupt
// or hostile frame cannot balloon memory (the decompression-bomb guard).

package cluster

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
)

// frameCompressed marks a frame whose payload is flate-compressed; the low
// bits carry the ordinary frame type.
const frameCompressed byte = 0x80

// wireFrameHeader is the byte cost of the frame header (4-byte length + 1
// type byte).
const wireFrameHeader = 5

// maxFramePayload bounds a frame's payload, declared or inflated, so a
// corrupt or hostile length prefix cannot trigger a huge allocation.
const maxFramePayload = 16 << 20

// compressMinBytes is the smallest payload worth attempting to compress;
// below this the flate header overhead dominates.
const compressMinBytes = 64

// blobFlateLevel is the fixed flate level for message-embedded blobs
// (ModelMsg model bytes, checkpoint bodies). It is a constant — not the
// connection's frame level — so those encodings stay canonical: decode
// re-compresses at this level and requires an exact byte match. It is the
// default level (6), not BestCompression: on a cluster_snow checkpoint level
// 9 took twice as long for output 0.5 % smaller, and every worker waits at
// the barrier while the coordinator compresses.
const blobFlateLevel = flate.DefaultCompression

// byteSink is an io.Writer appending into a reusable slice, the target the
// pooled flate.Writer compresses into.
type byteSink struct{ b []byte }

func (s *byteSink) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// appendFlate appends a deflate compression of src at the given level to
// dst and returns the extended slice.
func appendFlate(dst, src []byte, level int) []byte {
	sink := &byteSink{b: dst}
	fw, err := flate.NewWriter(sink, level)
	if err != nil {
		panic(err) // static level out of range: a programming error
	}
	fw.Write(src)
	fw.Close()
	return sink.b
}

// inflateExact decompresses a deflate stream that must yield exactly
// rawLen bytes — no fewer, no more. Callers bound rawLen before calling,
// so this never allocates beyond the declared size.
func inflateExact(comp []byte, rawLen int) ([]byte, error) {
	out := make([]byte, rawLen)
	fr := flate.NewReader(bytes.NewReader(comp))
	defer fr.Close()
	if _, err := io.ReadFull(fr, out); err != nil {
		return nil, fmt.Errorf("%w: corrupt flate stream: %v", ErrBadMessage, err)
	}
	var extra [1]byte
	if _, err := io.ReadFull(fr, extra[:]); err != io.EOF {
		return nil, fmt.Errorf("%w: flate stream longer than declared", ErrBadMessage)
	}
	return out, nil
}

// framer carries one connection's flate level, its two deflate stream
// states and pooled buffers, and keeps raw-vs-wire byte accounting for the
// compression metrics. The zero value is uncompressed — the handshake
// framing — so both ends start from it and set the level after the
// Hello/WireMsg exchange. Not safe for concurrent use; the cluster protocol
// is strictly lock-step per connection.
type framer struct {
	level int // flate level from the WireMsg; 0 = no compression on send

	fw   *flate.Writer // outbound stream compressor, lives for the connection
	sink byteSink      // compressor target, backing array reused
	wbuf []byte        // assembled outbound frame
	rbuf []byte        // inbound frame payload
	dbuf []byte        // inflated inbound payload
	fr   io.ReadCloser // inbound stream decompressor, lives for the connection
	cbuf bytes.Buffer  // decompressor source: compressed chunks in arrival order

	txRaw, txWire int64 // payload bytes before/after compression, sent
	rxRaw, rxWire int64 // payload bytes after/before inflation, received
}

// writeFrame frames and sends one message payload in a single Write,
// routing it through the connection's deflate stream when a level is set
// and the payload clears the size floor. It returns the
// on-the-wire byte count (header included). The route is decided by
// payload length alone — never by whether compression won — because the
// receiver's decompressor window must see exactly the chunks the sender's
// compressor window saw.
func (f *framer) writeFrame(w io.Writer, typ byte, payload []byte) (int, error) {
	if len(payload) > maxFramePayload {
		return 0, fmt.Errorf("cluster: frame payload %d exceeds limit", len(payload))
	}
	f.txRaw += int64(len(payload)) + wireFrameHeader
	out, outTyp := payload, typ
	if f.level > 0 && len(payload) >= compressMinBytes {
		f.sink.b = binary.AppendUvarint(f.sink.b[:0], uint64(len(payload)))
		if f.fw == nil {
			fw, err := flate.NewWriter(&f.sink, f.level)
			if err != nil {
				return 0, err
			}
			f.fw = fw
		}
		f.fw.Write(payload)
		if err := f.fw.Flush(); err != nil {
			return 0, err
		}
		out, outTyp = f.sink.b, typ|frameCompressed
	}
	f.wbuf = append(f.wbuf[:0], 0, 0, 0, 0, outTyp)
	binary.BigEndian.PutUint32(f.wbuf[:4], uint32(len(out)))
	f.wbuf = append(f.wbuf, out...)
	n := len(f.wbuf)
	f.txWire += int64(n)
	if _, err := w.Write(f.wbuf); err != nil {
		return 0, err
	}
	return n, nil
}

// readFrame reads one frame into pooled buffers, inflating a compressed
// payload after validating its declared raw length against the frame
// payload cap (so a hostile length cannot force a huge allocation, and a
// corrupt stream is rejected with ErrBadMessage). The returned payload
// aliases the framer's buffers and is valid until the next readFrame.
func (f *framer) readFrame(r io.Reader) (byte, []byte, int, error) {
	var hdr [wireFrameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxFramePayload {
		return 0, nil, 0, fmt.Errorf("%w: frame payload %d exceeds limit", ErrBadMessage, n)
	}
	if cap(f.rbuf) < int(n) {
		f.rbuf = make([]byte, int(n))
	}
	payload := f.rbuf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, 0, err
	}
	wireBytes := int(n) + wireFrameHeader
	f.rxWire += int64(wireBytes)
	typ := hdr[4]
	if typ&frameCompressed != 0 {
		raw, err := f.inflateFrame(payload)
		if err != nil {
			return 0, nil, 0, err
		}
		payload = raw
		typ &^= frameCompressed
	}
	f.rxRaw += int64(len(payload)) + wireFrameHeader
	return typ, payload, wireBytes, nil
}

// inflateFrame appends a compressed frame's chunk to the connection's
// deflate stream and reads the declared number of raw bytes out of it,
// into the pooled inflate buffer. The declared size is bomb-guarded before
// the chunk touches the stream; a chunk that cannot yield that many bytes
// (truncated, corrupt, or out of sequence) fails with ErrBadMessage, which
// is fatal for the connection — the stream has no resync point, exactly
// like the rest of the protocol state.
func (f *framer) inflateFrame(payload []byte) ([]byte, error) {
	rawLen, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("%w: compressed frame header", ErrBadMessage)
	}
	if rawLen > maxFramePayload {
		return nil, fmt.Errorf("%w: declared decompressed size %d exceeds cap %d",
			ErrBadMessage, rawLen, maxFramePayload)
	}
	f.cbuf.Write(payload[n:])
	if f.fr == nil {
		f.fr = flate.NewReader(&f.cbuf)
	}
	if cap(f.dbuf) < int(rawLen) {
		f.dbuf = make([]byte, int(rawLen))
	}
	out := f.dbuf[:rawLen]
	if _, err := io.ReadFull(f.fr, out); err != nil {
		return nil, fmt.Errorf("%w: corrupt flate stream: %v", ErrBadMessage, err)
	}
	return out, nil
}
