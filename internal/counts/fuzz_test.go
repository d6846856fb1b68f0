package counts

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// frameStore wraps body in the magic header and CRC trailer WriteTo
// emits, so fuzzed bodies reach the structural parser instead of dying
// at the checksum.
func frameStore(body []byte) []byte {
	out := append(append([]byte(nil), storeMagic...), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
}

// FuzzReadStore hammers the count-store codec the curator reloads from
// disk: ReadStore must never panic, and every input it accepts must
// re-encode through WriteTo and decode again to an equal store. With
// framed set the input is treated as a body and given a valid header
// and CRC, which lets the fuzzer explore past the checksum.
func FuzzReadStore(f *testing.F) {
	attrs := testSchema()
	s := NewStore(attrs)
	registerAll(f, s)
	if err := s.Accumulate(randomDataset(5, 200, attrs)); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	body := valid[len(storeMagic) : len(valid)-4]
	empty := new(bytes.Buffer)
	if _, err := NewStore(attrs).WriteTo(empty); err != nil {
		f.Fatal(err)
	}

	f.Add(valid, false)
	f.Add(body, true)
	f.Add(empty.Bytes(), false)
	for cut := 0; cut < len(valid); cut += len(valid)/9 + 1 {
		f.Add(valid[:cut], false)
		f.Add(body[:min(cut, len(body))], true)
	}
	for _, off := range []int{0, 8, 16, 20, len(body) / 2, len(body) - 1} {
		flipped := append([]byte(nil), body...)
		flipped[off] ^= 0x81
		f.Add(flipped, true)
		raw := append([]byte(nil), valid...)
		raw[len(storeMagic)+off] ^= 0x81
		f.Add(raw, false)
	}

	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		if framed {
			data = frameStore(data)
		}
		got, err := ReadStore(bytes.NewReader(data), attrs)
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if _, err := got.WriteTo(&enc); err != nil {
			t.Fatalf("accepted store fails to re-encode: %v", err)
		}
		back, err := ReadStore(bytes.NewReader(enc.Bytes()), attrs)
		if err != nil {
			t.Fatalf("re-encoded store rejected: %v", err)
		}
		storesEqual(t, got, back)
		var again bytes.Buffer
		if _, err := back.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), again.Bytes()) {
			t.Fatal("re-encoding is not deterministic")
		}
	})
}
