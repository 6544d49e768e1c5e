package fleet

import (
	"encoding/binary"
	"testing"

	"harmonia/internal/apps"
	"harmonia/internal/cmdif"
	"harmonia/internal/net"
)

// fuzzFlowWords is a real export of a table with n pinned flows.
func fuzzFlowWords(n int) []uint32 {
	ft := apps.NewFlowTable(flowTableCap)
	for i := 0; i < n; i++ {
		k := net.FlowKey{
			SrcIP: net.IPv4(10, 0, byte(i>>8), byte(i)), DstIP: net.IPv4(20, 0, 0, 1),
			Proto: net.ProtoTCP, SrcPort: uint16(1024 + 7*i), DstPort: 80,
		}
		ft.Pin(k, net.IPv4(10, 1, 0, byte(i%8+1)))
	}
	return ft.ExportWords()
}

func wordsBytes(words []uint32) []byte {
	out := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// FuzzFlowImportRows drives a replica's TableWrite sink with an
// arbitrary word stream cut into rows and delivered in an arbitrary
// order. Each plan byte sends one row: its low six bits pick the row
// index, bit 7 drops the row's last word and bit 6 appends an extra
// one. An empty plan sends every row in order. The sink must never
// panic, must refuse any row but the next expected one (or a restart
// at 0), must never hold more words than the header declares, and
// every completed stream must be in the table.
func FuzzFlowImportRows(f *testing.F) {
	for _, n := range []int{0, 1, 60, 130} {
		f.Add(wordsBytes(fuzzFlowWords(n)), []byte(nil))
	}
	f.Add(wordsBytes(fuzzFlowWords(130)), []byte{0, 2, 1, 0, 1, 2, 3})
	f.Add(wordsBytes(fuzzFlowWords(60)), []byte{0, 0x81, 0, 0x41, 0x42})
	f.Add(wordsBytes(fuzzFlowWords(1)), []byte{0, 0, 1})
	f.Fuzz(func(t *testing.T, raw []byte, plan []byte) {
		words := make([]uint32, len(raw)/4)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		rows := cmdif.SplitRows(words)
		if len(plan) == 0 {
			for i := range rows {
				plan = append(plan, byte(i&0x3f))
			}
		}
		fs := &flowState{table: apps.NewFlowTable(flowTableCap)}
		for _, p := range plan {
			index := uint32(p & 0x3f)
			var row []uint32
			if int(index) < len(rows) {
				row = append(row, rows[index]...)
			}
			if p&0x80 != 0 && len(row) > 0 {
				row = row[:len(row)-1]
			}
			if p&0x40 != 0 {
				row = append(row, 0)
			}
			next := fs.importNext
			err := fs.importRow(index, row)
			if index != 0 && index != next && err == nil {
				t.Fatalf("row %d accepted while row %d was expected", index, next)
			}
			if err != nil {
				continue
			}
			total, herr := apps.FlowSnapshotWords(fs.importBuf)
			if herr != nil {
				t.Fatalf("accepted rows with a bad header: %v", herr)
			}
			if len(fs.importBuf) > total {
				t.Fatalf("import holds %d words past the declared %d", len(fs.importBuf), total)
			}
			if len(fs.importBuf) < total {
				continue
			}
			entries, derr := apps.DecodeFlowSnapshot(fs.importBuf)
			if derr != nil {
				t.Fatalf("completed stream does not decode: %v", derr)
			}
			last := map[net.FlowKey]net.IPAddr{}
			for _, e := range entries {
				last[e.Key] = e.Backend
			}
			for k, want := range last {
				if got, ok := fs.table.Peek(k); !ok || got != want {
					t.Fatalf("flow %+v restored as %v/%v, want %v", k, got, ok, want)
				}
			}
		}
	})
}
