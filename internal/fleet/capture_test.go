package fleet

import (
	"slices"
	"testing"

	"harmonia/internal/apps"
	"harmonia/internal/cmdif"
	"harmonia/internal/device"
	"harmonia/internal/net"
	"harmonia/internal/sim"
)

// captureKey is the i-th flow of a capture test. Keys differ only in
// SrcIP, which increases with i, so ascending i is the snapshot's key
// order.
func captureKey(i int) net.FlowKey {
	return net.FlowKey{
		SrcIP: net.IPv4(10, byte(i>>16), byte(i>>8), byte(i)), DstIP: net.IPv4(20, 0, 0, 1),
		Proto: net.ProtoTCP, SrcPort: 4242, DstPort: 80,
	}
}

// captureBackend is the backend captureKey(i) pins to.
func captureBackend(i int) net.IPAddr { return net.IPv4(10, 1, 0, byte(i%8+1)) }

// pinFlows pins captureKey(from) .. captureKey(from+n-1) and returns
// the same entries in key order.
func pinFlows(ft *apps.FlowTable, from, n int) []apps.ConnEntry {
	entries := make([]apps.ConnEntry, 0, n)
	for i := from; i < from+n; i++ {
		ft.Pin(captureKey(i), captureBackend(i))
		entries = append(entries, apps.ConnEntry{Key: captureKey(i), Backend: captureBackend(i)})
	}
	return entries
}

// captureReplica builds a stateful fleet and returns one node and its
// replica with an empty connection table.
func captureReplica(t testing.TB) (*Cluster, *Node, *Replica) {
	c := buildStateful(t, DefaultConfig(), 3)
	n := c.Nodes()[0]
	reps := n.Replicas()
	if len(reps) != 1 || reps[0].flows == nil {
		t.Fatalf("node %s should host 1 stateful replica", n.ID)
	}
	return c, n, reps[0]
}

func TestPeriodicCaptureIsTheExport(t *testing.T) {
	c, n, r := captureReplica(t)
	entries := pinFlows(r.flows.table, 0, 600)
	want := apps.EncodeFlowSnapshot(entries)
	if cmdif.RowsFor(len(want)) < 3 {
		t.Fatalf("%d words fit in fewer than 3 rows", len(want))
	}
	c.snapshotNode(c.Now(), n)
	first := c.snapshots[r.Name()].words
	if !slices.Equal(first, want) {
		t.Fatalf("capture has %d words, differs from the %d-word sorted encoding", len(first), len(want))
	}
	export := r.flows.table.ExportWords()
	if &first[0] != &export[0] {
		t.Error("capture copied the export instead of sharing its backing array")
	}

	// A later pin publishes a new export; the earlier capture, shared
	// with the old one, must not move.
	pinFlows(r.flows.table, 600, 1)
	c.snapshotNode(c.Now(), n)
	if !slices.Equal(first, want) {
		t.Error("a later pin changed an earlier capture")
	}
	second := c.snapshots[r.Name()].words
	if got := apps.FlowSnapshotEntries(second); got != 601 {
		t.Errorf("second capture has %d entries, want 601", got)
	}
	if &second[0] == &first[0] {
		t.Error("second capture reuses the first capture's array")
	}
}

func TestReadFlowWordsCopiesRowsThatAreNotAdjacent(t *testing.T) {
	// A source whose rows are not consecutive windows of one array falls
	// back to the copy, and the words come out the same.
	cases := []struct {
		name string
		rows func(export []uint32) [][]uint32
	}{
		{"separate arrays", func(export []uint32) [][]uint32 {
			var rows [][]uint32
			for _, r := range cmdif.SplitRows(export) {
				rows = append(rows, slices.Clone(r))
			}
			return rows
		}},
		{"row 0 at capacity", func(export []uint32) [][]uint32 {
			rows := cmdif.SplitRows(export)
			rows[0] = rows[0][:len(rows[0]):len(rows[0])]
			return rows
		}},
		{"last row separate", func(export []uint32) [][]uint32 {
			rows := cmdif.SplitRows(export)
			rows[len(rows)-1] = slices.Clone(rows[len(rows)-1])
			return rows
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, n, r := captureReplica(t)
			want := apps.EncodeFlowSnapshot(pinFlows(r.flows.table, 0, 200))
			export := r.flows.table.ExportWords()
			rows := tc.rows(export)
			m, ok := n.Inst.Kernel().Module(device.RBBRole, 0)
			if !ok {
				t.Fatal("no role module")
			}
			m.SetTableSource(flowTableID(r), func(i uint32) ([]uint32, bool) {
				if int(i) >= len(rows) {
					return nil, false
				}
				return rows[i], true
			})
			got, err := c.readFlowWords(n, r)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("read %d words, want the %d-word export", len(got), len(want))
			}
			if &got[0] == &export[0] {
				t.Error("words joined in place across rows that are not adjacent")
			}
			if !slices.Equal(export, want) {
				t.Error("the join wrote into the published export")
			}
		})
	}
}

func TestRouteQueueFollowsSteering(t *testing.T) {
	// Dispatch.Queue is the flow director's pick: the tenant's queue
	// range offset by the VIP-rewritten flow hash.
	c := buildTest(t, 4, 8)
	c.RunMonitorUntil(2 * c.Config().ReconfigTime)
	ph, err := c.PreparePhase(50*sim.Microsecond, DefaultTraffic(testApp))
	if err != nil {
		t.Fatal(err)
	}
	queues := map[int]bool{}
	for _, p := range ph.pkts {
		d, err := c.Route(c.Now(), testApp, p)
		if err != nil || d.Dropped {
			continue
		}
		n, err := c.Node(d.Node)
		if err != nil {
			t.Fatal(err)
		}
		lo, span, err := n.Tenants.ResolveSteering(d.Replica.VIP)
		if err != nil {
			t.Fatal(err)
		}
		k := p.Flow()
		k.DstIP = d.Replica.VIP
		if want := lo + int(k.Hash()%uint64(span)); d.Queue != want {
			t.Fatalf("flow %+v routed to queue %d, want %d", k, d.Queue, want)
		}
		queues[d.Queue] = true
	}
	if len(queues) < 2 {
		t.Errorf("served packets used %d distinct queues, want several", len(queues))
	}
}

var captureSink []uint32

// BenchmarkSnapshotCapture times one periodic capture of a replica at
// the storm-300 mean table size over the command path: every TableRead
// row plus the row join, with the table unchanged since the last
// capture and with one new pin before each capture.
func BenchmarkSnapshotCapture(b *testing.B) {
	const size = 662
	c, n, r := captureReplica(b)
	read := func() {
		words, err := c.readFlowWords(n, r)
		if err != nil {
			b.Fatal(err)
		}
		captureSink = words
	}
	b.Run("unchanged", func(b *testing.B) {
		r.flows.table = apps.NewFlowTable(flowTableCap)
		pinFlows(r.flows.table, 0, size)
		read()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read()
		}
	})
	b.Run("one-pin", func(b *testing.B) {
		next := size
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Refill before the table outgrows its size by a quarter.
			if i%(size/4) == 0 {
				b.StopTimer()
				r.flows.table = apps.NewFlowTable(flowTableCap)
				pinFlows(r.flows.table, 0, size)
				read()
				next = size
				b.StartTimer()
			}
			r.flows.table.Pin(captureKey(next), captureBackend(next))
			next++
			read()
		}
	})
}
