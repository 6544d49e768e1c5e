package apps

import (
	"cmp"
	"fmt"
	"slices"

	"harmonia/internal/net"
)

// FlowTable is the stateful connection table of the Layer-4 LB: the
// flow → backend pinning that keeps established connections on their
// server while the Maglev pool churns underneath. It is the
// device-resident state live migration carries across PR slots, so it
// knows how to snapshot itself into (and restore itself from) the
// versioned word encoding the command path's table transactions move.
// It keeps that encoding incrementally (ExportWords), so a periodic
// capture of a mostly unchanged table costs no full sort.
type FlowTable struct {
	conns map[net.FlowKey]net.IPAddr
	max   int
	// hits/misses count lookups against established flows vs new-flow
	// pins; tableFull counts pins refused because the table was at
	// capacity — those flows silently lose stickiness, so the counter
	// is the operator's only signal.
	hits, misses, tableFull int64
	// words is the last published export. A published slice is never
	// written again: row splits alias it and callers may still hold it,
	// so every change publishes a fresh slice.
	words []uint32
	// logging is set by an export and cleared by any change the pending
	// log cannot express — an eviction, an overwrite, or a log grown
	// past half the table. While it is clear nothing is logged and the
	// next export rebuilds from the map, so a table that is never
	// exported never logs.
	logging bool
	// pending holds the entries added since words was published,
	// unsorted; their keys are neither in words nor in each other.
	pending []flowRec
}

// NewFlowTable returns an empty table bounded at max entries.
func NewFlowTable(max int) *FlowTable {
	return &FlowTable{conns: make(map[net.FlowKey]net.IPAddr), max: max}
}

// Len reports the established flow count.
func (t *FlowTable) Len() int { return len(t.conns) }

// Max reports the table capacity.
func (t *FlowTable) Max() int { return t.max }

// SetMax rebounds the table; existing entries stay even above the new
// bound, only future pins are refused.
func (t *FlowTable) SetMax(max int) { t.max = max }

// Lookup finds an established flow's pinned backend, counting the hit.
func (t *FlowTable) Lookup(k net.FlowKey) (net.IPAddr, bool) {
	b, ok := t.conns[k]
	if ok {
		t.hits++
	}
	return b, ok
}

// Peek reads an entry without touching the counters (measurement and
// migration use it; the datapath uses Lookup).
func (t *FlowTable) Peek(k net.FlowKey) (net.IPAddr, bool) {
	b, ok := t.conns[k]
	return b, ok
}

// Pin records a new flow's backend, counting the miss. A full table
// refuses the pin and counts it: the flow is still served but loses
// stickiness across pool changes.
func (t *FlowTable) Pin(k net.FlowKey, b net.IPAddr) bool {
	t.misses++
	if len(t.conns) >= t.max {
		t.tableFull++
		return false
	}
	n := len(t.conns)
	t.conns[k] = b
	if t.logging {
		t.logAdd(len(t.conns) > n, recOf(k, b))
	}
	return true
}

// EvictBackend removes every flow pinned to a backend and reports how
// many were evicted — the cleanup path for a *failed* backend, whose
// pinned flows would otherwise blackhole forever.
func (t *FlowTable) EvictBackend(b net.IPAddr) int {
	evicted := 0
	for k, have := range t.conns {
		if have == b {
			delete(t.conns, k)
			evicted++
		}
	}
	if evicted > 0 {
		t.invalidate()
	}
	return evicted
}

// Stats reports the table counters.
func (t *FlowTable) Stats() (hits, misses, tableFull int64) {
	return t.hits, t.misses, t.tableFull
}

// ConnEntry is one pinned flow in a snapshot.
type ConnEntry struct {
	Key     net.FlowKey
	Backend net.IPAddr
}

// Snapshot exports the table as a deterministic (key-sorted) entry
// list — the consistent capture the export side of migration stages. It
// decodes ExportWords, so both views share one sort.
func (t *FlowTable) Snapshot() []ConnEntry {
	entries, err := DecodeFlowSnapshot(t.ExportWords())
	if err != nil {
		panic(fmt.Sprintf("apps: flow table export does not decode: %v", err))
	}
	return entries
}

// Restore replays snapshot entries into the table, respecting the
// capacity bound; it reports how many were added and how many dropped.
// Counters are untouched: a restore is control-plane traffic, not
// datapath lookups.
func (t *FlowTable) Restore(entries []ConnEntry) (added, dropped int) {
	for _, e := range entries {
		_, dup := t.conns[e.Key]
		if !dup && len(t.conns) >= t.max {
			dropped++
			continue
		}
		t.conns[e.Key] = e.Backend
		added++
		if t.logging {
			t.logAdd(!dup, recOf(e.Key, e.Backend))
		}
	}
	return added, dropped
}

// ExportWords returns the table's framed snapshot encoding: exactly
// EncodeFlowSnapshot of the key-sorted entries. The slice is shared and
// immutable — callers must not write it, and later table changes
// publish a new slice instead of touching this one. An unchanged table
// returns the same slice again; entries added since the last export
// merge in one linear pass; after an eviction or an overwrite the
// export rebuilds from the table.
func (t *FlowTable) ExportWords() []uint32 {
	switch {
	case !t.logging:
		recs := make([]flowRec, 0, len(t.conns))
		for k, b := range t.conns {
			recs = append(recs, recOf(k, b))
		}
		sortRecs(recs)
		t.words = appendHeader(len(recs))
		for _, r := range recs {
			t.words = r.appendTo(t.words)
		}
	case len(t.pending) > 0:
		t.words = t.mergePending()
	}
	t.logging = true
	// Drop the log's backing array rather than reuse it: a kept
	// capacity would hold each table's largest pin burst in the heap.
	t.pending = nil
	return t.words
}

// logAdd records one stored entry for the next export: a new key joins
// the pending log, an overwrite (or a log past half the table) drops
// the log and leaves the next export to rebuild.
func (t *FlowTable) logAdd(fresh bool, r flowRec) {
	if !fresh {
		t.invalidate()
		return
	}
	if t.pending == nil {
		t.pending = make([]flowRec, 0, pendingCap)
	}
	t.pending = append(t.pending, r)
	if len(t.pending) > len(t.conns)/2 {
		t.invalidate()
	}
}

// pendingCap is a new pending log's first capacity: about the pins a
// busy table takes between two periodic captures, so a log usually
// costs one allocation on the packet path instead of a doubling chain.
const pendingCap = 32

// invalidate forces the next export to rebuild from the table.
func (t *FlowTable) invalidate() {
	t.logging = false
	t.pending = nil
}

// mergePending merges the sorted pending log into a fresh copy of the
// published words. Keys are unique across both, so each pending entry
// lands strictly between its neighbours.
func (t *FlowTable) mergePending() []uint32 {
	sortRecs(t.pending)
	old := t.words
	out := appendHeader(int(old[1]) + len(t.pending))
	i := flowSnapHeaderWords
	for _, r := range t.pending {
		j := i
		for j < len(old) && orderAt(old[j:]).compare(r.key) < 0 {
			j += flowSnapEntryWords
		}
		out = r.appendTo(append(out, old[i:j]...))
		i = j
	}
	return append(out, old[i:]...)
}

// keyOrder is a flow key packed into two integers ordered like its 13
// wire bytes: src IP, dst IP, proto, then src and dst port big-endian.
// Comparing two costs two integer compares and no allocation.
type keyOrder struct{ hi, lo uint64 }

// orderOf packs a flow key.
func orderOf(k net.FlowKey) keyOrder {
	return keyOrder{
		hi: uint64(ipWord(k.SrcIP))<<32 | uint64(ipWord(k.DstIP)),
		lo: uint64(k.Proto)<<32 | uint64(k.SrcPort)<<16 | uint64(k.DstPort),
	}
}

// orderAt packs the key of the encoded entry starting at w[0].
func orderAt(w []uint32) keyOrder {
	return keyOrder{hi: uint64(w[0])<<32 | uint64(w[1]), lo: uint64(w[3])<<32 | uint64(w[2])}
}

func (a keyOrder) compare(b keyOrder) int {
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	return cmp.Compare(a.lo, b.lo)
}

// flowRec is one entry packed for sorting and encoding.
type flowRec struct {
	key     keyOrder
	backend uint32
}

func recOf(k net.FlowKey, b net.IPAddr) flowRec {
	return flowRec{key: orderOf(k), backend: ipWord(b)}
}

// appendTo appends the record's five encoded words.
func (r flowRec) appendTo(out []uint32) []uint32 {
	return append(out, uint32(r.key.hi>>32), uint32(r.key.hi), uint32(r.key.lo), uint32(r.key.lo>>32), r.backend)
}

// sortRecs puts records in snapshot (key) order.
func sortRecs(recs []flowRec) {
	slices.SortFunc(recs, func(a, b flowRec) int { return a.key.compare(b.key) })
}

// Flow snapshot wire encoding (version 1): the word stream table-read/
// table-write transactions carry across devices during live migration.
//
//	word 0: magic (16) | version (16)
//	word 1: entry count
//	then per entry, 5 words:
//	  src IP, dst IP, src port (16) | dst port (16), proto, backend IP
const (
	flowSnapMagic       = 0x4C42 // "LB"
	FlowSnapshotVersion = 1
	flowSnapHeader      = flowSnapMagic<<16 | FlowSnapshotVersion
	flowSnapHeaderWords = 2
	flowSnapEntryWords  = 5
)

// ipWord packs an IPv4 address big-endian into one word.
func ipWord(a net.IPAddr) uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// wordIP unpacks ipWord.
func wordIP(w uint32) net.IPAddr {
	return net.IPAddr{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)}
}

// EncodeFlowSnapshot serializes entries into the versioned word stream.
func EncodeFlowSnapshot(entries []ConnEntry) []uint32 {
	out := appendHeader(len(entries))
	for _, e := range entries {
		out = recOf(e.Key, e.Backend).appendTo(out)
	}
	return out
}

// appendHeader starts a stream of n entries, sized for all of them.
func appendHeader(n int) []uint32 {
	out := make([]uint32, 0, flowSnapHeaderWords+flowSnapEntryWords*n)
	return append(out, flowSnapHeader, uint32(n))
}

// FlowSnapshotWords validates a snapshot's header and returns the total
// word count the stream declares — how the receive side knows when a
// row-by-row transfer is complete.
func FlowSnapshotWords(words []uint32) (int, error) {
	if len(words) < flowSnapHeaderWords {
		return 0, fmt.Errorf("apps: flow snapshot truncated before header")
	}
	if magic := words[0] >> 16; magic != flowSnapMagic {
		return 0, fmt.Errorf("apps: flow snapshot bad magic %#04x", magic)
	}
	if v := words[0] & 0xffff; v != FlowSnapshotVersion {
		return 0, fmt.Errorf("apps: flow snapshot version %d, want %d", v, FlowSnapshotVersion)
	}
	return flowSnapHeaderWords + flowSnapEntryWords*int(words[1]), nil
}

// FlowSnapshotEntries reports the entry count a stream's header
// declares; words must have passed FlowSnapshotWords.
func FlowSnapshotEntries(words []uint32) int { return int(words[1]) }

// DecodeFlowSnapshot parses the versioned word stream back into
// entries, validating magic, version and length.
func DecodeFlowSnapshot(words []uint32) ([]ConnEntry, error) {
	want, err := FlowSnapshotWords(words)
	if err != nil {
		return nil, err
	}
	if len(words) != want {
		return nil, fmt.Errorf("apps: flow snapshot has %d words, header declares %d", len(words), want)
	}
	entries := make([]ConnEntry, 0, words[1])
	for i := flowSnapHeaderWords; i < want; i += flowSnapEntryWords {
		entries = append(entries, ConnEntry{
			Key: net.FlowKey{
				SrcIP:   wordIP(words[i]),
				DstIP:   wordIP(words[i+1]),
				SrcPort: uint16(words[i+2] >> 16),
				DstPort: uint16(words[i+2]),
				Proto:   uint8(words[i+3]),
			},
			Backend: wordIP(words[i+4]),
		})
	}
	return entries, nil
}
