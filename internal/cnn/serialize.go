package cnn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Serialization implements the §V-D deployment story: once helpers are
// trained offline, "the predictors' model parameters (e.g., network
// weights in the case of a CNN) could be stored as application metadata,
// e.g., under a new segment type in an ELF binary", loaded onto the BPU
// by the OS at program start. The format stores only the quantized
// deployment weights — the 2-bit magnitudes plus their scale factors —
// not the float training state.
//
// Format ("BLH1"):
//
//	magic    [4]byte "BLH1"
//	config   histLen, buckets, filters, segments (uvarint each)
//	bias     float32 bits (4 bytes, little-endian)
//	scale2   float32 bits (4 bytes, little-endian)
//	q2       segments*filters bytes (int8 + 2)
//	q1       2*buckets rows, each a scale1 entry (float32 bits, 4 bytes,
//	         little-endian) followed by filters bytes (int8 + 2)

var helperMagic = [4]byte{'B', 'L', 'H', '1'}

// ErrBadHelperFile is returned when decoding a stream that is not a
// serialized helper model.
var ErrBadHelperFile = errors.New("cnn: bad magic (not a BLH1 helper model)")

// ErrTruncatedHelper is matched (errors.Is) by the error ReadModel
// returns when the stream ends inside a helper model; the error also
// matches io.ErrUnexpectedEOF.
var ErrTruncatedHelper = errors.New("cnn: truncated helper model")

// WriteTo serializes the quantized model. It fails if the model has not
// been trained (there is nothing deployable to write).
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	if !m.quantized {
		return 0, errors.New("cnn: model not trained/quantized; nothing to serialize")
	}
	bw := bufio.NewWriter(w)
	var n int64
	write := func(p []byte) error {
		k, err := bw.Write(p)
		n += int64(k)
		return err
	}
	if err := write(helperMagic[:]); err != nil {
		return n, err
	}
	var buf [binary.MaxVarintLen64]byte
	putUv := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		return write(buf[:k])
	}
	putF32 := func(f float32) error {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], floatBits(f))
		return write(b[:])
	}
	for _, v := range []uint64{
		uint64(m.Cfg.HistLen), uint64(m.Cfg.Buckets),
		uint64(m.Cfg.Filters), uint64(m.Cfg.Segments),
	} {
		if err := putUv(v); err != nil {
			return n, err
		}
	}
	if err := putF32(m.b); err != nil {
		return n, err
	}
	if err := putF32(m.scale2); err != nil {
		return n, err
	}
	q2b := make([]byte, len(m.q2))
	for i, q := range m.q2 {
		q2b[i] = byte(q + 2)
	}
	if err := write(q2b); err != nil {
		return n, err
	}
	nf := m.Cfg.Filters
	for i, scale := range m.scale1 {
		row := m.q1[i*nf : (i+1)*nf]
		if err := putF32(scale); err != nil {
			return n, err
		}
		rb := make([]byte, len(row))
		for j, q := range row {
			rb[j] = byte(q + 2)
		}
		if err := write(rb); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadModel deserializes a helper model written by WriteTo. The returned
// model predicts with the stored quantized weights; it cannot be further
// trained (the float state is not persisted). The header's geometry is
// only a claim: the weights grow as they are read, so a hostile header
// costs no more memory than the bytes that follow it.
func ReadModel(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, readErr("magic", err)
	}
	if hdr != helperMagic {
		return nil, ErrBadHelperFile
	}
	readF32 := func(what string) (float32, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, readErr(what, err)
		}
		return floatFrom(binary.LittleEndian.Uint32(b[:])), nil
	}
	var vals [4]int
	for i := range vals {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, readErr("geometry", err)
		}
		vals[i] = int(min(v, math.MaxInt32))
	}
	cfg := Config{HistLen: vals[0], Buckets: vals[1], Filters: vals[2], Segments: vals[3]}
	if cfg.HistLen <= 0 || cfg.Buckets <= 0 || cfg.Filters <= 0 || cfg.Segments <= 0 ||
		cfg.HistLen > 1<<16 || cfg.Buckets > 1<<20 || cfg.Filters > 1<<12 || cfg.Segments > 1<<12 {
		return nil, fmt.Errorf("cnn: implausible helper geometry %+v", cfg)
	}
	m := &Model{Cfg: cfg, quantized: true}
	var err error
	if m.b, err = readF32("bias"); err != nil {
		return nil, err
	}
	if m.scale2, err = readF32("output scale"); err != nil {
		return nil, err
	}
	// io.CopyN into a bytes.Buffer grows the buffer as bytes arrive.
	var q2b bytes.Buffer
	if _, err := io.CopyN(&q2b, br, int64(cfg.Segments*cfg.Filters)); err != nil {
		return nil, readErr("output weights", err)
	}
	if m.q2, err = levels(q2b.Bytes()); err != nil {
		return nil, err
	}
	rb := make([]byte, cfg.Filters)
	for i := 0; i < 2*cfg.Buckets; i++ {
		scale, err := readF32("embedding scale")
		if err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(br, rb); err != nil {
			return nil, readErr("embedding weights", err)
		}
		row, err := levels(rb)
		if err != nil {
			return nil, err
		}
		m.scale1 = append(m.scale1, scale)
		m.q1 = append(m.q1, row...)
	}
	return m, nil
}

// levels decodes stored weight bytes (int8 + 2) into 2-bit levels.
func levels(b []byte) ([]int8, error) {
	q := make([]int8, len(b))
	for i, v := range b {
		if v > 4 {
			return nil, fmt.Errorf("cnn: weight level %d out of range", int(v)-2)
		}
		q[i] = int8(v) - 2
	}
	return q, nil
}

// readErr reports a failed read of the named field; a stream that ends
// early is ErrTruncatedHelper (and io.ErrUnexpectedEOF).
func readErr(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: reading %s: %w", ErrTruncatedHelper, what, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("cnn: reading helper %s: %w", what, err)
}

func floatBits(f float32) uint32 { return math.Float32bits(f) }
func floatFrom(u uint32) float32 { return math.Float32frombits(u) }
