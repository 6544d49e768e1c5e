package apps

import (
	"encoding/binary"
	"slices"
	"testing"

	"harmonia/internal/net"
)

// FuzzDecodeFlowSnapshot drives the flow-snapshot decoder with
// arbitrary words. It must never panic; FlowSnapshotWords must reject
// whatever DecodeFlowSnapshot rejects for its header; and an accepted
// stream must be exactly as long as its header declares and re-encode
// to the same words, except for proto-word bits above the proto byte,
// which the decoder ignores.
func FuzzDecodeFlowSnapshot(f *testing.F) {
	ft := NewFlowTable(1 << 10)
	f.Add(wordsToBytes(ft.ExportWords()))
	for port := uint16(1); port <= 70; port++ {
		ft.Pin(ftKey(port), net.IPv4(10, 0, 0, byte(port%4+1)))
		if port == 1 || port == 70 {
			f.Add(wordsToBytes(ft.ExportWords()))
		}
	}
	words := ft.ExportWords()
	f.Add(wordsToBytes(words[:len(words)-1]))
	f.Add(wordsToBytes(words[:1]))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		words := make([]uint32, len(raw)/4)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		total, herr := FlowSnapshotWords(words)
		entries, err := DecodeFlowSnapshot(words)
		if err != nil {
			return
		}
		if herr != nil || total != len(words) {
			t.Fatalf("decoded a stream of %d words whose header says %d (%v)", len(words), total, herr)
		}
		if len(entries) != FlowSnapshotEntries(words) {
			t.Fatalf("decoded %d entries, header declares %d", len(entries), FlowSnapshotEntries(words))
		}
		re := EncodeFlowSnapshot(entries)
		want := slices.Clone(words)
		for i := flowSnapHeaderWords + 3; i < len(want); i += flowSnapEntryWords {
			want[i] &= 0xff
		}
		if !slices.Equal(re, want) {
			t.Fatalf("re-encode mismatch:\n got %v\nwant %v", re, want)
		}
	})
}

func wordsToBytes(words []uint32) []byte {
	out := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}
