// Package remotewrite implements the push-ingest wire protocol and HTTP
// receiver for the CEEMS stack: a Prometheus remote-write-style path that
// lets agents POST batches of samples instead of waiting to be scraped.
//
// # Framing
//
// A stream is the 4-byte magic "CRW1" followed by zero or more frames.
// Each frame is
//
//	flag   byte     0 = raw payload, 1 = DEFLATE-compressed payload
//	length uint32   little endian, byte count of the stored payload
//	crc    uint32   little endian, CRC-32C of the UNCOMPRESSED payload
//	data   [length]byte
//
// The payload is Prometheus text exposition format (internal/expofmt) with
// explicit millisecond timestamps — the same encoding the exporters and the
// scrape loop already speak, so one tokenizer serves both ingest paths. The
// CRC covers the uncompressed bytes: a decompression bug or a torn
// compressed tail can never silently commit garbage. Frames are bounded by
// MaxFrame on both the stored and the decompressed size, so one request
// never buffers more than a frame of payload regardless of body size — the
// receiver decodes and commits frame by frame, through one batch per request.
//
// Decoders are pooled (NewDecoder / Release): the bufio reader, the DEFLATE
// reader and the scratch buffers are all reused across requests, keeping
// steady-state ingest allocation-free on the framing layer.
package remotewrite

import (
	"bufio"
	"bytes"
	"compress/flate"
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

// MaxFrame bounds both the stored and the decompressed payload size of one
// frame. Senders must split batches that would exceed it.
const MaxFrame = 4 << 20

const (
	flagRaw     = 0
	flagDeflate = 1
)

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
	compress   bool
	wroteMagic bool
	buf        []byte       // uncompressed exposition payload
	cbuf       bytes.Buffer // compressed payload
	head       [9]byte
}

// flateWriters pools the DEFLATE compressor — over half a megabyte of state
// — across encoders: an agent makes a new Encoder per request.
var flateWriters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(nil, flate.BestSpeed)
	return fw
}}

// NewEncoder returns an Encoder on w. With compress set, frames carry
// DEFLATE-compressed payloads (falling back to raw when compression does
// not help).
func NewEncoder(w io.Writer, compress bool) *Encoder {
	return &Encoder{w: w, compress: compress}
}

// WriteBatch frames one batch of metric families and writes it out. Every
// sample must carry an explicit timestamp (Metric.TS != 0) — the receiver
// rejects frames with scrape-time samples.
func (e *Encoder) WriteBatch(fams []*expofmt.Family) error {
	if !e.wroteMagic {
		if _, err := io.WriteString(e.w, Magic); err != nil {
			return err
		}
		e.wroteMagic = true
	}
	e.buf = e.buf[:0]
	for _, f := range fams {
		e.buf = expofmt.AppendFamily(e.buf, f)
	}
	if len(e.buf) > MaxFrame {
		return fmt.Errorf("%w: %d bytes (max %d); split the batch", ErrFrameTooLarge, len(e.buf), MaxFrame)
	}
	crc := crc32.Checksum(e.buf, castagnoli)
	flag := byte(flagRaw)
	payload := e.buf
	if e.compress {
		e.cbuf.Reset()
		fw := flateWriters.Get().(*flate.Writer)
		fw.Reset(&e.cbuf)
		_, err := fw.Write(payload)
		if err == nil {
			err = fw.Close()
		}
		flateWriters.Put(fw)
		if err != nil {
			return err
		}
		if e.cbuf.Len() < len(payload) {
			flag = flagDeflate
			payload = e.cbuf.Bytes()
		}
	}
	e.head[0] = flag
	binary.LittleEndian.PutUint32(e.head[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.head[5:9], crc)
	if _, err := e.w.Write(e.head[:]); err != nil {
		return err
	}
	_, err := e.w.Write(payload)
	return err
}

// Decoder reads a remote-write stream frame by frame. Obtain one with
// NewDecoder and return it with Release; the internal buffers are pooled.
type Decoder struct {
	br        *bufio.Reader
	fr        io.ReadCloser // pooled DEFLATE reader (flate.Resetter)
	stored    []byte        // frame payload as stored on the wire
	plain     bytes.Buffer  // decompressed payload
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
	d.plain.Reset()
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

// frame reads one frame and returns its checked, uncompressed payload: the
// decoder's own buffer, valid until the next call.
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
	if flag != flagRaw && flag != flagDeflate {
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadFlag, flag)
	}
	if length > MaxFrame {
		return nil, fmt.Errorf("%w: stored %d bytes (max %d)", ErrFrameTooLarge, length, MaxFrame)
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
	payload := d.stored
	if flag == flagDeflate {
		if d.fr == nil {
			d.fr = flate.NewReader(bytes.NewReader(d.stored)).(io.ReadCloser)
		} else {
			if err := d.fr.(flate.Resetter).Reset(bytes.NewReader(d.stored), nil); err != nil {
				return nil, err
			}
		}
		d.plain.Reset()
		// +1 so a payload that would exceed the cap is detected rather
		// than silently truncated (decompression-bomb guard).
		n, err := io.Copy(&d.plain, io.LimitReader(d.fr, MaxFrame+1))
		if err != nil {
			return nil, fmt.Errorf("remotewrite: decompress frame: %w", err)
		}
		if n > MaxFrame {
			return nil, fmt.Errorf("%w: decompressed past %d bytes", ErrFrameTooLarge, MaxFrame)
		}
		payload = d.plain.Bytes()
	}
	if got := crc32.Checksum(payload, castagnoli); got != crc {
		return nil, fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, crc)
	}
	return payload, nil
}
