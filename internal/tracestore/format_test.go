package tracestore

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeHeader feeds hostile bytes to the header decoder, the
// trust boundary for a store directory shared between processes. It
// must never panic; every rejection must wrap ErrReject; and an
// accepted header must respect the key's budget and re-encode to the
// same extent and checkpoints. Each input is tried as given and with a
// valid trailing checksum appended, so mutations reach the parser
// behind the checksum instead of all failing it.
func FuzzDecodeHeader(f *testing.F) {
	k := testKey()
	good := encodeHeader(k, 12345, testCkpts())
	f.Add(good)
	f.Add(good[:len(good)-8])
	f.Add(encodeHeader(k, 0, nil))
	f.Add(encodeHeader(Key{Name: "other"}, 1, nil))
	f.Add([]byte{})
	f.Add([]byte("BLTH"))
	f.Fuzz(func(t *testing.T, b []byte) {
		sum := binary.LittleEndian.AppendUint64(append([]byte(nil), b...), fnv1a(b))
		for _, in := range [][]byte{b, sum} {
			total, ckpts, err := decodeHeader("fuzz", k, in)
			if err != nil {
				if !errors.Is(err, ErrReject) {
					t.Fatalf("untyped rejection: %v", err)
				}
				continue
			}
			if total > k.Budget {
				t.Fatalf("accepted extent %d over budget %d", total, k.Budget)
			}
			total2, ckpts2, err := decodeHeader("fuzz", k, encodeHeader(k, total, ckpts))
			if err != nil || total2 != total || !reflect.DeepEqual(ckpts2, ckpts) {
				t.Fatalf("accepted header does not round-trip: %v", err)
			}
		}
	})
}
