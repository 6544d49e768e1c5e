package cmdif

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzUnmarshal drives the command parser with arbitrary bytes: it must
// never panic, and anything it accepts must re-marshal to the same
// bytes it consumed.
func FuzzUnmarshal(f *testing.F) {
	seed, _ := New(1, 0, TableWrite, 1, 2, 3).Marshal()
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, rest, err := Unmarshal(raw)
		if err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted packet failed to re-marshal: %v", err)
		}
		consumed := raw[:len(raw)-len(rest)]
		if !bytes.Equal(out, consumed) {
			t.Fatalf("re-marshal mismatch:\nconsumed %x\nremarshal %x", consumed, out)
		}
	})
}

// FuzzSplitJoinRows checks the table-row framing on arbitrary word
// streams: joining the split rows gives the stream back, every row fits
// one command, and the row count is RowsFor of the stream length.
func FuzzSplitJoinRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4})
	f.Add(make([]byte, 4*MaxTableRowWords))
	f.Add(make([]byte, 4*(MaxTableRowWords+1)))
	f.Add(make([]byte, 4*(3*MaxTableRowWords-1)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		words := make([]uint32, len(raw)/4)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		rows := SplitRows(words)
		if len(rows) != RowsFor(len(words)) {
			t.Fatalf("%d words split into %d rows, RowsFor says %d", len(words), len(rows), RowsFor(len(words)))
		}
		for i, r := range rows {
			if len(r) == 0 || len(r) > MaxTableRowWords {
				t.Fatalf("row %d has %d words, want 1..%d", i, len(r), MaxTableRowWords)
			}
		}
		if got := JoinRows(rows); !slices.Equal(got, words) {
			t.Fatalf("JoinRows(SplitRows(w)) = %d words, want the %d-word input", len(got), len(words))
		}
	})
}
