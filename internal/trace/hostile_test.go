package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// hostileDstReg is a 45-byte BLT1 file of ten ALU instructions (IPs
// 0x1000 stepping by 4) that each name destination register 100 of a
// 32-register file. Before the reader validated register indices it
// decoded cleanly, and the pipeline model then indexed its register
// state out of range.
func hostileDstReg() []byte {
	b := append([]byte(nil), magic[:]...)
	var last uint64
	for i := uint64(0); i < 10; i++ {
		ip := 0x1000 + 4*i
		b = append(b, byte(KindALU)|flagHasDst)
		b = binary.AppendUvarint(b, zigzag(int64(ip-last)))
		last = ip
		b = append(b, 100)             // DstReg
		b = binary.AppendUvarint(b, 7) // DstValue
	}
	return b
}

// decodeAll reads r to the end, returning the decoded instructions and
// the reader's error.
func decodeAll(data []byte) ([]Inst, error) {
	r := NewReader(bytes.NewReader(data))
	var out []Inst
	var inst Inst
	for r.Next(&inst) {
		out = append(out, inst)
	}
	return out, r.Err()
}

func TestReaderRejectsOutOfRangeRegister(t *testing.T) {
	data := hostileDstReg()
	if len(data) != 45 {
		t.Fatalf("hostile file is %d bytes, want 45", len(data))
	}
	insts, err := decodeAll(data)
	if len(insts) != 0 {
		t.Errorf("decoded %d instructions before rejecting", len(insts))
	}
	var re *RecordError
	if !errors.Is(err, ErrMalformed) || !errors.As(err, &re) || re.Index != 0 {
		t.Fatalf("err = %v, want a *RecordError for record 0 matching ErrMalformed", err)
	}
}

// TestReaderRejectsMalformedRecords covers each malformed-record rule
// on an otherwise valid stream: the records before the bad one decode,
// and the error names the bad record's position.
func TestReaderRejectsMalformedRecords(t *testing.T) {
	good := Inst{IP: 0x40, Kind: KindALU, DstReg: 3, SrcRegs: [2]uint8{1, NoReg}}
	var prefix bytes.Buffer
	w := NewWriter(&prefix)
	for i := 0; i < 3; i++ {
		if err := w.WriteInst(&good); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		record []byte
	}{
		{"invalid kind", []byte{0x0E, 0}},
		{"source register", []byte{byte(KindALU) | flagHasSrc, 0, 1, 32}},
		{"destination register", []byte{byte(KindALU) | flagHasDst, 0, 254, 0}},
		{"destination flag without register", []byte{byte(KindALU) | flagHasDst, 0, NoReg, 0}},
		{"memory operand on ALU", []byte{byte(KindALU) | flagHasMem, 0, 8}},
	} {
		data := append(append([]byte(nil), prefix.Bytes()...), c.record...)
		insts, err := decodeAll(data)
		var re *RecordError
		if len(insts) != 3 || !errors.As(err, &re) || re.Index != 3 || !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: decoded %d, err %v; want 3 then a record-3 ErrMalformed", c.name, len(insts), err)
		}
	}
}

func TestWriterRejectsOutOfRangeRegister(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	for _, inst := range []Inst{
		{Kind: KindALU, DstReg: NumRegs, SrcRegs: [2]uint8{NoReg, NoReg}},
		{Kind: KindALU, DstReg: NoReg, SrcRegs: [2]uint8{NoReg, 200}},
	} {
		if err := w.WriteInst(&inst); !errors.Is(err, ErrMalformed) {
			t.Errorf("WriteInst(%+v) = %v, want ErrMalformed", inst, err)
		}
	}
}

// FuzzTraceReader feeds arbitrary bytes to the decoder. Decoding must
// never panic; every accepted instruction must have in-range register
// indices; and the accepted instructions must round-trip through the
// Writer unchanged.
func FuzzTraceReader(f *testing.F) {
	var valid bytes.Buffer
	w := NewWriter(&valid)
	for _, inst := range synthetic(40) {
		if err := w.WriteInst(&inst); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add(hostileDstReg())
	f.Add(magic[:])
	f.Add([]byte("BLT0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		insts, _ := decodeAll(data)
		var out bytes.Buffer
		w := NewWriter(&out)
		for i := range insts {
			if why := checkRegs(&insts[i]); why != "" {
				t.Fatalf("record %d accepted with %s", i, why)
			}
			if err := w.WriteInst(&insts[i]); err != nil {
				t.Fatalf("record %d accepted by the reader, refused by the writer: %v", i, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := decodeAll(out.Bytes())
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if len(again) != len(insts) {
			t.Fatalf("round trip: %d instructions, want %d", len(again), len(insts))
		}
		for i := range insts {
			if again[i] != insts[i] {
				t.Fatalf("round trip record %d: %+v, want %+v", i, again[i], insts[i])
			}
		}
	})
}
