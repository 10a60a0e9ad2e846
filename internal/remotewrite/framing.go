// Package remotewrite implements the push-ingest wire protocol and HTTP
// receiver for the CEEMS stack: a Prometheus remote-write-style path that
// lets agents POST batches of samples instead of waiting to be scraped.
//
// # Framing
//
// A stream is the 4-byte magic "CRW1" followed by zero or more frames.
// Each frame is
//
//	flag   byte     always 0 (raw payload); any other value is refused
//	length uint32   little endian, byte count of the payload
//	crc    uint32   little endian, CRC-32C of the payload
//	data   [length]byte
//
// The payload is Prometheus text exposition format (internal/expofmt) with
// explicit millisecond timestamps — the same encoding the exporters and the
// scrape loop already speak, so one tokenizer serves both ingest paths.
// Frames are bounded by MaxFrame, so one request never buffers more than a
// frame of payload regardless of body size — the receiver decodes and
// commits frame by frame, through one batch per request.
//
// Frames travel raw. Flag 1 once marked a DEFLATE-compressed payload; it is
// refused now like any unknown flag. The push agents run beside the head
// they feed, and there compression cost more CPU than the bytes it saved:
// deflate and inflate were a third of the push path's CPU, for about 230
// bytes of wire per sample instead of 28 (docs/ARCHITECTURE.md, "The push
// edge"). A wide-area sender would want a cheaper compressor than DEFLATE.
//
// Decoders are pooled (NewDecoder / Release): the bufio reader and the
// payload buffer are reused across requests, keeping steady-state ingest
// allocation-free on the framing layer.
package remotewrite

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/expofmt"
)

// Magic starts every remote-write stream.
const Magic = "CRW1"

// MaxFrame bounds the payload size of one frame. Senders must split batches
// that would exceed it.
const MaxFrame = 4 << 20

// flagRaw is the one frame flag a decoder accepts.
const flagRaw = 0

// Framing errors. Decode failures wrap one of these so callers can
// distinguish a torn tail from corruption or a hostile frame.
var (
	ErrBadMagic      = errors.New("remotewrite: bad stream magic")
	ErrTruncated     = errors.New("remotewrite: truncated frame")
	ErrChecksum      = errors.New("remotewrite: frame checksum mismatch")
	ErrFrameTooLarge = errors.New("remotewrite: frame exceeds size limit")
	ErrBadFlag       = errors.New("remotewrite: unknown frame flag")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder writes a remote-write stream: the magic once, then one frame per
// WriteBatch call.
type Encoder struct {
	w          io.Writer
	wroteMagic bool
	buf        []byte // the magic, if not yet written, the frame header and the payload
}

// NewEncoder returns an Encoder on w. Frames are always raw; compress is
// ignored.
//
// Deprecated: kept for bench/ until T2 (ROADMAP U).
func NewEncoder(w io.Writer, compress bool) *Encoder {
	return &Encoder{w: w}
}

// WriteBatch frames one batch of metric families and writes it out in one
// Write. Every sample must carry an explicit timestamp (Metric.TS != 0) —
// the receiver rejects frames with scrape-time samples.
func (e *Encoder) WriteBatch(fams []*expofmt.Family) error {
	e.buf = e.buf[:0]
	if !e.wroteMagic {
		e.buf = append(e.buf, Magic...)
	}
	head := len(e.buf)
	e.buf = append(e.buf, flagRaw, 0, 0, 0, 0, 0, 0, 0, 0)
	for _, f := range fams {
		e.buf = expofmt.AppendFamily(e.buf, f)
	}
	payload := e.buf[head+9:]
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes (max %d); split the batch", ErrFrameTooLarge, len(payload), MaxFrame)
	}
	binary.LittleEndian.PutUint32(e.buf[head+1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.buf[head+5:], crc32.Checksum(payload, castagnoli))
	if _, err := e.w.Write(e.buf); err != nil {
		return err
	}
	e.wroteMagic = true
	return nil
}

// Decoder reads a remote-write stream frame by frame. Obtain one with
// NewDecoder and return it with Release; the internal buffers are pooled.
type Decoder struct {
	br        *bufio.Reader
	stored    []byte // frame payload
	readMagic bool
}

var decoderPool = sync.Pool{
	New: func() any {
		return &Decoder{br: bufio.NewReaderSize(nil, 64<<10)}
	},
}

// NewDecoder returns a pooled Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.br.Reset(r)
	d.readMagic = false
	return d
}

// Release resets the Decoder and returns it to the pool. The Decoder must
// not be used afterwards.
func (d *Decoder) Release() {
	d.br.Reset(nil)
	decoderPool.Put(d)
}

// Next decodes one frame and parses its payload into families. It returns
// io.EOF exactly at a frame boundary (the clean end of the stream); an EOF
// anywhere else surfaces as an error wrapping ErrTruncated. The receiver
// walks frame's payload with expofmt.Tokenizer instead.
func (d *Decoder) Next() ([]*expofmt.Family, error) {
	payload, err := d.frame()
	if err != nil {
		return nil, err
	}
	// A *bytes.Buffer is the one reader Parse takes the bytes of as they are.
	fams, err := expofmt.Parse(bytes.NewBuffer(payload))
	if err != nil {
		return nil, fmt.Errorf("remotewrite: parse frame payload: %w", err)
	}
	return fams, nil
}

// frame reads one frame and returns its checked payload: the decoder's own
// buffer, valid until the next call.
func (d *Decoder) frame() ([]byte, error) {
	if !d.readMagic {
		var magic [4]byte
		if _, err := io.ReadFull(d.br, magic[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("%w: short magic", ErrTruncated)
			}
			return nil, err
		}
		if string(magic[:]) != Magic {
			return nil, fmt.Errorf("%w: got %q", ErrBadMagic, magic[:])
		}
		d.readMagic = true
	}
	var head [9]byte
	if _, err := io.ReadFull(d.br, head[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean end between frames
		}
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: short frame header", ErrTruncated)
		}
		return nil, err
	}
	flag := head[0]
	length := binary.LittleEndian.Uint32(head[1:5])
	crc := binary.LittleEndian.Uint32(head[5:9])
	if flag != flagRaw {
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadFlag, flag)
	}
	if length > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes (max %d)", ErrFrameTooLarge, length, MaxFrame)
	}
	if cap(d.stored) < int(length) {
		d.stored = make([]byte, length)
	}
	d.stored = d.stored[:length]
	if _, err := io.ReadFull(d.br, d.stored); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: frame payload cut short", ErrTruncated)
		}
		return nil, err
	}
	if got := crc32.Checksum(d.stored, castagnoli); got != crc {
		return nil, fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, crc)
	}
	return d.stored, nil
}
