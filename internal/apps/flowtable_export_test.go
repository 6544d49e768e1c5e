package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"harmonia/internal/net"
)

// wireKey is the 13-byte wire packing snapshot order is defined over:
// src IP, dst IP, proto, src port, dst port, big-endian.
func wireKey(k net.FlowKey) []byte {
	buf := make([]byte, 13)
	copy(buf[0:4], k.SrcIP[:])
	copy(buf[4:8], k.DstIP[:])
	buf[8] = k.Proto
	binary.BigEndian.PutUint16(buf[9:11], k.SrcPort)
	binary.BigEndian.PutUint16(buf[11:13], k.DstPort)
	return buf
}

// referenceWords encodes a table's contents through an independent
// full sort over the wire packing.
func referenceWords(ft *FlowTable) []uint32 {
	entries := make([]ConnEntry, 0, len(ft.conns))
	for k, b := range ft.conns {
		entries = append(entries, ConnEntry{Key: k, Backend: b})
	}
	sort.Slice(entries, func(i, j int) bool {
		return bytes.Compare(wireKey(entries[i].Key), wireKey(entries[j].Key)) < 0
	})
	return EncodeFlowSnapshot(entries)
}

// randomKey draws from a small value space with edge values, so keys
// collide (duplicate pins and restores) and tie on leading fields.
func randomKey(rng *rand.Rand) net.FlowKey {
	ips := []net.IPAddr{net.IPv4(0, 0, 0, 0), net.IPv4(10, 0, 0, 1), net.IPv4(10, 0, 1, 0), net.IPv4(255, 255, 255, 255)}
	protos := []uint8{0, net.ProtoTCP, net.ProtoUDP, 255}
	ports := []uint16{0, 1, 80, 0x00FF, 0x0100, 0xFFFF}
	port := func() uint16 {
		if rng.Intn(2) == 0 {
			return ports[rng.Intn(len(ports))]
		}
		return uint16(rng.Intn(1 << 16))
	}
	return net.FlowKey{
		SrcIP: ips[rng.Intn(len(ips))], DstIP: ips[rng.Intn(len(ips))],
		Proto: protos[rng.Intn(len(protos))], SrcPort: port(), DstPort: port(),
	}
}

// TestKeyOrderMatchesWireBytes pins the packed two-word key compare to
// the order snapshots have always used: bytes.Compare over the 13-byte
// wire packing.
func TestKeyOrderMatchesWireBytes(t *testing.T) {
	edges := []net.FlowKey{
		{},
		{SrcIP: net.IPv4(255, 255, 255, 255), DstIP: net.IPv4(255, 255, 255, 255), Proto: 255, SrcPort: 0xFFFF, DstPort: 0xFFFF},
		{SrcIP: net.IPv4(0, 0, 0, 1)},
		{SrcIP: net.IPv4(1, 0, 0, 0)},
		{DstIP: net.IPv4(0, 0, 0, 1)},
		{DstIP: net.IPv4(128, 0, 0, 0)},
		{Proto: 1},
		{Proto: 255, SrcPort: 0, DstPort: 0},
		{Proto: 0, SrcPort: 0xFFFF, DstPort: 0xFFFF},
		{SrcPort: 0x00FF},
		{SrcPort: 0x0100},
		{DstPort: 0x00FF},
		{DstPort: 0x0100},
		{SrcPort: 1, DstPort: 0},
		{SrcPort: 0, DstPort: 0xFFFF},
	}
	rng := rand.New(rand.NewSource(7))
	keys := append([]net.FlowKey(nil), edges...)
	for i := 0; i < 200; i++ {
		keys = append(keys, randomKey(rng))
	}
	for _, a := range keys {
		for _, b := range keys {
			want := bytes.Compare(wireKey(a), wireKey(b))
			if got := orderOf(a).compare(orderOf(b)); got != want {
				t.Fatalf("compare(%+v, %+v) = %d, wire bytes say %d", a, b, got, want)
			}
			// The merge reads keys back out of encoded words.
			w := EncodeFlowSnapshot([]ConnEntry{{Key: a}})[flowSnapHeaderWords:]
			if orderAt(w) != orderOf(a) {
				t.Fatalf("orderAt of %+v's encoding = %+v, want %+v", a, orderAt(w), orderOf(a))
			}
		}
	}
	a, b := edges[9], edges[10]
	if allocs := testing.AllocsPerRun(100, func() { orderOf(a).compare(orderOf(b)) }); allocs != 0 {
		t.Errorf("key compare allocates %.1f times", allocs)
	}
}

// TestExportWordsIncremental runs random table histories interleaved
// with exports: every export must equal the encoding of an independent
// full sort, byte for byte, and no slice returned earlier may change.
func TestExportWordsIncremental(t *testing.T) {
	backends := []net.IPAddr{net.IPv4(10, 9, 0, 1), net.IPv4(10, 9, 0, 2), net.IPv4(10, 9, 0, 3)}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ft := NewFlowTable(40 + rng.Intn(200))
		var published, copies [][]uint32
		backend := func() net.IPAddr { return backends[rng.Intn(len(backends))] }
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(20); {
			case op < 8:
				ft.Pin(randomKey(rng), backend())
			case op < 11:
				batch := make([]ConnEntry, 1+rng.Intn(6))
				for i := range batch {
					batch[i] = ConnEntry{Key: randomKey(rng), Backend: backend()}
				}
				// Replay a few live entries too: duplicate restores,
				// some onto a different backend.
				for k := range ft.conns {
					if rng.Intn(8) == 0 {
						batch = append(batch, ConnEntry{Key: k, Backend: backend()})
					}
				}
				ft.Restore(batch)
			case op < 12:
				ft.EvictBackend(backend())
			case op < 13:
				ft.SetMax(rng.Intn(300))
			default:
				got := ft.ExportWords()
				if want := referenceWords(ft); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: export differs from a full sort\n got %v\nwant %v", seed, step, got, want)
				}
				published = append(published, got)
				copies = append(copies, slices.Clone(got))
			}
			for i := range published {
				if !slices.Equal(published[i], copies[i]) {
					t.Fatalf("seed %d step %d: export %d was mutated after publication", seed, step, i)
				}
			}
		}
		if len(published) == 0 {
			t.Fatalf("seed %d: no exports taken", seed)
		}
	}
}

func TestExportWordsCacheLifecycle(t *testing.T) {
	ft := NewFlowTable(1 << 10)
	for port := uint16(1); port <= 100; port++ {
		ft.Pin(ftKey(port), net.IPv4(10, 0, 0, 1))
	}
	if ft.logging || ft.pending != nil {
		t.Fatal("a table never exported logs its pins")
	}
	first := ft.ExportWords()
	if again := ft.ExportWords(); &again[0] != &first[0] {
		t.Error("unchanged table re-encoded its export")
	}
	if allocs := testing.AllocsPerRun(10, func() { ft.ExportWords() }); allocs != 0 {
		t.Errorf("unchanged export allocates %.1f times", allocs)
	}
	ft.Pin(ftKey(500), net.IPv4(10, 0, 0, 2))
	if len(ft.pending) != 1 || !ft.logging {
		t.Fatalf("pin after export not logged: pending %d logging %v", len(ft.pending), ft.logging)
	}
	if merged := ft.ExportWords(); &merged[0] == &first[0] || FlowSnapshotEntries(merged) != 101 {
		t.Error("merge did not publish a fresh 101-entry slice")
	}
	// Past half the table the log is dropped for a full rebuild.
	for port := uint16(1000); port < 1110; port++ {
		ft.Pin(ftKey(port), net.IPv4(10, 0, 0, 3))
	}
	if ft.logging || ft.pending != nil {
		t.Errorf("log of %d pins against %d entries kept", 110, ft.Len())
	}
	if got, want := ft.ExportWords(), referenceWords(ft); !slices.Equal(got, want) {
		t.Error("rebuild after a dropped log differs from a full sort")
	}
}

func TestExportWordsAfterEvictionAndOverwrite(t *testing.T) {
	ft := NewFlowTable(100)
	for port := uint16(1); port <= 20; port++ {
		ft.Pin(ftKey(port), net.IPv4(10, 0, 0, byte(port%2+1)))
	}
	ft.ExportWords()
	ft.EvictBackend(net.IPv4(10, 0, 0, 1))
	if ft.logging {
		t.Fatal("eviction left the export cache live")
	}
	if got, want := ft.ExportWords(), referenceWords(ft); !slices.Equal(got, want) {
		t.Fatal("export after eviction differs from a full sort")
	}
	ft.Restore([]ConnEntry{{Key: ftKey(1), Backend: net.IPv4(10, 0, 0, 9)}})
	if ft.logging {
		t.Fatal("overwriting restore left the export cache live")
	}
	if got, want := ft.ExportWords(), referenceWords(ft); !slices.Equal(got, want) {
		t.Fatal("export after an overwrite differs from a full sort")
	}
}

// exportSink keeps benchmarked exports live.
var exportSink []uint32

// benchTable builds a table of n pins on one backend, in random key
// order, and takes its first export.
func benchTable(n int, rng *rand.Rand) *FlowTable {
	ft := NewFlowTable(4 * n)
	for ft.Len() < n {
		ft.Pin(benchKey(rng), net.IPv4(10, 1, 0, 1))
	}
	ft.ExportWords()
	return ft
}

func benchKey(rng *rand.Rand) net.FlowKey {
	return net.FlowKey{
		SrcIP: net.IPv4(100, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))),
		DstIP: net.IPv4(20, 0, 0, 1), Proto: net.ProtoTCP,
		SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 443,
	}
}

// BenchmarkFlowTableExport times a TableRead's row-0 export at the
// storm-300 mean table size and at the fleet's table capacity, in
// three states: nothing changed since the last export, one new pin
// (merged), and one eviction (full rebuild).
func BenchmarkFlowTableExport(b *testing.B) {
	for _, size := range []int{662, 1 << 16} {
		b.Run(fmt.Sprintf("unchanged/%d", size), func(b *testing.B) {
			ft := benchTable(size, rand.New(rand.NewSource(1)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exportSink = ft.ExportWords()
			}
		})
		b.Run(fmt.Sprintf("one-pin/%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			ft := benchTable(size, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Rebuild before the table outgrows its size by a quarter.
				if i > 0 && i%(size/4) == 0 {
					b.StopTimer()
					ft = benchTable(size, rng)
					b.StartTimer()
				}
				ft.Pin(benchKey(rng), net.IPv4(10, 1, 0, 2))
				exportSink = ft.ExportWords()
			}
		})
		b.Run(fmt.Sprintf("after-evict/%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			ft := benchTable(size, rng)
			victim := net.IPv4(10, 1, 0, 9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft.Restore([]ConnEntry{{Key: benchKey(rng), Backend: victim}})
				ft.EvictBackend(victim)
				exportSink = ft.ExportWords()
			}
		})
	}
}
