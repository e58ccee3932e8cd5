package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format ("BLT1"):
//
//	magic   [4]byte  "BLT1"
//	records *        one varint-encoded record per instruction
//	         flags   byte: kind(4) | taken(1) | hasMem(1) | hasDst(1) | hasSrc(1)
//	         ipDelta zig-zag varint from previous IP
//	         target  varint (branches only)
//	         memAddr varint (hasMem)
//	         dstReg+dstValue (hasDst)
//	         srcRegs byte+byte (hasSrc; NoReg-padded)
//
// The format is delta- and presence-encoded so that long synthetic traces
// stored by cmd/tracegen stay compact (typically ~4-6 bytes/instruction).

var magic = [4]byte{'B', 'L', 'T', '1'}

// ErrBadMagic is returned when a trace file does not start with the
// expected header.
var ErrBadMagic = errors.New("trace: bad magic (not a BLT1 trace file)")

// ErrMalformed classifies records that are well framed but describe an
// instruction the model cannot hold: an unknown kind, a register index
// outside [0, NumRegs) that is not NoReg, or a field the kind cannot
// carry. Writer refuses to produce such records and Reader refuses to
// decode them, so every consumer may index register state directly.
// The concrete error is a *RecordError.
var ErrMalformed = errors.New("trace: malformed record")

// RecordError reports a malformed record: its zero-based position in
// the stream and what is wrong with it. It matches ErrMalformed under
// errors.Is.
type RecordError struct {
	Index  uint64
	Reason string
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("trace: record %d: %s", e.Index, e.Reason)
}

// Unwrap makes every RecordError match ErrMalformed.
func (e *RecordError) Unwrap() error { return ErrMalformed }

// validReg reports whether r can name a register slot: an index into
// the register file, or NoReg.
func validReg(r uint8) bool { return r < NumRegs || r == NoReg }

// checkRegs returns why inst's register fields are malformed, or "".
func checkRegs(inst *Inst) string {
	if !validReg(inst.DstReg) {
		return fmt.Sprintf("destination register %d outside [0, %d)", inst.DstReg, NumRegs)
	}
	for _, r := range inst.SrcRegs {
		if !validReg(r) {
			return fmt.Sprintf("source register %d outside [0, %d)", r, NumRegs)
		}
	}
	return ""
}

const (
	flagTaken  = 1 << 4
	flagHasMem = 1 << 5
	flagHasDst = 1 << 6
	flagHasSrc = 1 << 7
	kindMask   = 0x0F
)

// Writer encodes instructions to an io.Writer in the BLT1 format.
type Writer struct {
	w      *bufio.Writer
	lastIP uint64
	wrote  bool
	n      uint64 // records written
	buf    [8 * binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer that emits the BLT1 header on the first
// WriteInst call.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// WriteInst appends one instruction to the trace. An instruction the
// Reader would reject (invalid kind or register index) is refused with
// a *RecordError and nothing is written.
func (w *Writer) WriteInst(inst *Inst) error {
	if !inst.Kind.Valid() {
		return &RecordError{Index: w.n, Reason: fmt.Sprintf("invalid kind %d", inst.Kind)}
	}
	if why := checkRegs(inst); why != "" {
		return &RecordError{Index: w.n, Reason: why}
	}
	if !w.wrote {
		if _, err := w.w.Write(magic[:]); err != nil {
			return err
		}
		w.wrote = true
	}
	flags := byte(inst.Kind) & kindMask
	if inst.Taken {
		flags |= flagTaken
	}
	hasMem := inst.Kind == KindLoad || inst.Kind == KindStore
	if hasMem {
		flags |= flagHasMem
	}
	hasDst := inst.DstReg != NoReg
	if hasDst {
		flags |= flagHasDst
	}
	hasSrc := inst.SrcRegs[0] != NoReg || inst.SrcRegs[1] != NoReg
	if hasSrc {
		flags |= flagHasSrc
	}

	b := w.buf[:0]
	b = append(b, flags)
	b = binary.AppendUvarint(b, zigzag(int64(inst.IP-w.lastIP)))
	w.lastIP = inst.IP
	if inst.Kind.IsBranch() {
		b = binary.AppendUvarint(b, inst.Target)
	}
	if hasMem {
		b = binary.AppendUvarint(b, inst.MemAddr)
	}
	if hasDst {
		b = append(b, inst.DstReg)
		b = binary.AppendUvarint(b, inst.DstValue)
	}
	if hasSrc {
		b = append(b, inst.SrcRegs[0], inst.SrcRegs[1])
	}
	_, err := w.w.Write(b)
	w.n++
	return err
}

// Flush writes any buffered data to the underlying writer. A trace with no
// instructions still gets a valid header.
func (w *Writer) Flush() error {
	if !w.wrote {
		if _, err := w.w.Write(magic[:]); err != nil {
			return err
		}
		w.wrote = true
	}
	return w.w.Flush()
}

// Reader decodes a BLT1 trace. It implements Stream; decoding errors are
// reported via Err after Next returns false.
type Reader struct {
	r      *bufio.Reader
	lastIP uint64
	opened bool
	n      uint64 // records decoded
	err    error
}

// NewReader returns a Reader over r. The header is validated on the first
// Next call.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Err returns the first error encountered while decoding, excluding a clean
// end of file.
func (r *Reader) Err() error { return r.err }

// fail records a mid-record decoding error. EOF inside a record means the
// file was truncated, which callers must be able to distinguish from a
// clean end of trace.
func (r *Reader) fail(err error) bool {
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	r.err = err
	return false
}

// Next implements Stream.
func (r *Reader) Next(inst *Inst) bool {
	if r.err != nil {
		return false
	}
	if !r.opened {
		var hdr [4]byte
		if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
			r.err = err
			if errors.Is(err, io.EOF) {
				r.err = ErrBadMagic
			}
			return false
		}
		if hdr != magic {
			r.err = ErrBadMagic
			return false
		}
		r.opened = true
	}
	flags, err := r.r.ReadByte()
	if err != nil {
		if !errors.Is(err, io.EOF) {
			r.err = err
		}
		return false
	}
	*inst = Inst{
		Kind:    Kind(flags & kindMask),
		Taken:   flags&flagTaken != 0,
		DstReg:  NoReg,
		SrcRegs: [2]uint8{NoReg, NoReg},
	}
	if !inst.Kind.Valid() {
		return r.malformed(fmt.Sprintf("invalid kind %d", inst.Kind))
	}
	if flags&flagHasMem != 0 && inst.Kind != KindLoad && inst.Kind != KindStore {
		return r.malformed(fmt.Sprintf("memory operand on a %v instruction", inst.Kind))
	}
	du, err := binary.ReadUvarint(r.r)
	if err != nil {
		return r.fail(err)
	}
	r.lastIP += uint64(unzigzag(du))
	inst.IP = r.lastIP
	if inst.Kind.IsBranch() {
		if inst.Target, err = binary.ReadUvarint(r.r); err != nil {
			return r.fail(err)
		}
	}
	if flags&flagHasMem != 0 {
		if inst.MemAddr, err = binary.ReadUvarint(r.r); err != nil {
			return r.fail(err)
		}
	}
	if flags&flagHasDst != 0 {
		if inst.DstReg, err = r.r.ReadByte(); err != nil {
			return r.fail(err)
		}
		if inst.DstValue, err = binary.ReadUvarint(r.r); err != nil {
			return r.fail(err)
		}
		if inst.DstReg == NoReg {
			return r.malformed("destination flag without a destination register")
		}
	}
	if flags&flagHasSrc != 0 {
		if inst.SrcRegs[0], err = r.r.ReadByte(); err != nil {
			return r.fail(err)
		}
		if inst.SrcRegs[1], err = r.r.ReadByte(); err != nil {
			return r.fail(err)
		}
	}
	if why := checkRegs(inst); why != "" {
		return r.malformed(why)
	}
	r.n++
	return true
}

// malformed records a *RecordError for the record being decoded.
func (r *Reader) malformed(reason string) bool {
	r.err = &RecordError{Index: r.n, Reason: reason}
	return false
}
