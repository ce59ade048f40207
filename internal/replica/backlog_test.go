package replica

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"cphash/internal/cluster"
	"cphash/internal/persist"
	"cphash/internal/protocol"
)

// backlogModel checks the byte-ring backlog against the plainest model of
// what it promises: a slice of the last `records` frames with their
// stamps, streams and WAL positions, and per stream the position from
// which every record is still held. Every operation is decoded from
// data, so the same code serves the seeded property test and
// FuzzBacklog. Reading past the end of data ends the run.
type backlogModel struct {
	t    *testing.T
	data []byte
	pos  int

	bl      backlog
	records int
	// keyed runs give every frame a key at persist.FrameKey's offset and
	// drive collect with slot filters; unkeyed runs also append frames
	// too short to hold a key (down to 1 byte) and never filter.
	keyed bool

	frames  [][]byte // frames[i] holds seq base+i
	stamps  []int64
	streams []int
	poss    []persist.WALPos
	base    uint64 // seq of frames[0]

	nstreams int
	hist     [][]persist.WALPos // every position appended, per stream
	from     []persist.WALPos   // per stream: every record past it is retained
	next     uint64             // next seq to assign
	bound    int                // high-water mark of 4 × live bytes + largest live frame
	step     int
}

const (
	modelMaxFrame = 70 << 10     // largest frame: above any initial ring
	frameKeyEnd   = 8 + 1 + 8    // FrameKey reads bytes [9, 17)
	modelMaxBatch = 3 * 64 << 10 // largest collect byte budget
)

// framePattern supplies frame bytes. It repeats every 256 bytes, so its
// 251 shifts are all distinct.
var framePattern = func() []byte {
	p := make([]byte, modelMaxFrame+251)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return p
}()

func newBacklogModel(t *testing.T, data []byte) *backlogModel {
	m := &backlogModel{t: t, data: data, base: 1, next: 1}
	b := m.byte()
	m.records = 1 + int(b%64)
	m.keyed = b&64 != 0
	m.nstreams = 1 + 2*int(b>>7)
	m.hist = make([][]persist.WALPos, m.nstreams)
	m.from = make([]persist.WALPos, m.nstreams)
	m.bl.init(m.records, m.nstreams)
	return m
}

// more reports whether input remains; byte and u16 read 0 past its end.
func (m *backlogModel) more() bool { return m.pos < len(m.data) }

func (m *backlogModel) byte() byte {
	if m.pos >= len(m.data) {
		m.pos++
		return 0
	}
	m.pos++
	return m.data[m.pos-1]
}

func (m *backlogModel) u16() int { return int(m.byte()) | int(m.byte())<<8 }

func (m *backlogModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("step %d (records %d, keyed %v, ring %d B): "+format,
		append([]any{m.step, m.records, m.keyed, len(m.bl.data)}, args...)...)
}

func (m *backlogModel) run() {
	for m.more() {
		m.step++
		switch op := m.byte(); op % 8 {
		case 0, 1, 2, 3:
			m.append()
		case 4, 5:
			m.collect()
		case 6:
			m.handoff()
		case 7:
			if m.byte()&1 == 0 {
				m.stamp()
			} else {
				m.raise()
			}
		}
		if got, want := m.bl.tail(), m.next-1; got != want {
			m.fatalf("tail = %d, model %d", got, want)
		}
	}
}

// frameSize picks a size class: mostly small, sometimes large, now and
// then past the initial ring.
func (m *backlogModel) frameSize() int {
	var n int
	switch c := m.byte(); {
	case c < 128:
		n = 1 + m.u16()%256
	case c < 208:
		n = 1 + m.u16()%4096
	case c < 248:
		n = 1 + m.u16()%(32<<10)
	default:
		n = 1 + (m.u16()<<2|int(m.byte()&3))%modelMaxFrame
	}
	if m.keyed && n < frameKeyEnd {
		n = frameKeyEnd
	}
	return n
}

func (m *backlogModel) append() {
	n := m.frameSize()
	// Frame bytes depend on the seq (mod 251, more than any window),
	// so a frame served in place of another never matches by accident.
	frame := make([]byte, n)
	copy(frame, framePattern[m.next%251:])
	if m.keyed {
		binary.LittleEndian.PutUint64(frame[9:], uint64(m.byte())*0x9e3779b97f4a7c15)
	}
	at := int64(m.next)*1000 + int64(m.byte())
	// The stream's next position: further on in its segment, or in a
	// later one.
	stream := int(m.byte()) % m.nstreams
	pos := persist.SegmentStart(1)
	if h := m.hist[stream]; len(h) > 0 {
		pos = h[len(h)-1]
		if m.byte()%8 == 0 {
			pos = persist.SegmentStart(pos.Seg + 1 + uint64(m.byte()%3))
		}
	}
	pos.Off += uint64(n)
	m.hist[stream] = append(m.hist[stream], pos)
	before := len(m.bl.data)
	m.bl.append(frame, at, stream, pos)

	m.frames = append(m.frames, frame)
	m.stamps = append(m.stamps, at)
	m.streams = append(m.streams, stream)
	m.poss = append(m.poss, pos)
	m.next++
	if len(m.frames) > m.records {
		if s := m.streams[0]; m.from[s].Before(m.poss[0]) {
			m.from[s] = m.poss[0]
		}
		m.frames = m.frames[1:]
		m.stamps = m.stamps[1:]
		m.streams = m.streams[1:]
		m.poss = m.poss[1:]
		m.base++
	}

	live, largest := 0, 0
	for _, f := range m.frames {
		live += len(f)
		largest = max(largest, len(f))
	}
	// The ring never shrinks, so between growths it is bounded by the
	// window's high-water mark; the append that grows it, by the window
	// it grew for.
	m.bound = max(m.bound, 4*live+largest)
	if size := len(m.bl.data); size > max(m.records*ringBytesPerRecord, m.bound) {
		m.fatalf("ring holds %d B; live frames %d B (largest %d), high-water bound %d", size, live, largest, m.bound)
	} else if size != before && size > 4*live+largest {
		m.fatalf("ring grew to %d B for live frames of %d B (largest %d)", size, live, largest)
	}
}

// posArg picks a position of stream s: none, one it has had, or one past
// its newest.
func (m *backlogModel) posArg(s int) persist.WALPos {
	h := m.hist[s]
	switch i := int(m.byte()) % (len(h) + 2); {
	case i == 0:
		return persist.WALPos{}
	case i <= len(h):
		return h[i-1]
	default:
		p := persist.SegmentStart(1)
		if len(h) > 0 {
			p = h[len(h)-1]
		}
		p.Off++
		return p
	}
}

// vecArg picks a position vector, one posArg per stream.
func (m *backlogModel) vecArg() []persist.WALPos {
	v := make([]persist.WALPos, m.nstreams)
	for s := range v {
		v[s] = m.posArg(s)
	}
	return v
}

// seqArg picks a seq around the retained window: overrun, retained, the
// tail, one past it, and beyond.
func (m *backlogModel) seqArg() uint64 {
	lo := int64(m.base) - 2
	s := lo + int64(m.byte())%(int64(m.next)-lo+3)
	if s < 0 {
		return 0
	}
	return uint64(s)
}

func (m *backlogModel) collect() {
	from := m.seqArg()
	var slots *protocol.SlotSet
	if m.keyed && m.byte()&1 == 1 {
		slots = new(protocol.SlotSet)
		for s := 0; s < protocol.SlotCount; s++ {
			if m.byte()&1 == 1 {
				slots.Add(s)
			}
		}
	}
	maxBytes := m.u16() * 3 % modelMaxBatch
	prefix := make([]byte, m.byte()%24)
	for i := range prefix {
		prefix[i] = byte(i)
	}

	pos := m.vecArg()
	wantPos := append([]persist.WALPos(nil), pos...)

	out, next, matched, overrun := m.bl.collect(from, slots, pos, append([]byte(nil), prefix...), maxBytes)

	want := append([]byte(nil), prefix...)
	wantNext, wantMatched, wantOverrun := from, 0, from < m.base
	if !wantOverrun {
		for wantNext < m.next && len(want) < maxBytes {
			i := wantNext - m.base
			wantNext++
			s := m.streams[i]
			if !wantPos[s].Before(m.poss[i]) {
				continue
			}
			wantPos[s] = m.poss[i]
			f := m.frames[i]
			if slots == nil || slots.Has(cluster.SlotOf(persist.FrameKey(f))) {
				want = append(want, f...)
				wantMatched++
			}
		}
	}
	if overrun != wantOverrun || next != wantNext || matched != wantMatched {
		m.fatalf("collect(%d, max %d) = next %d matched %d overrun %v; model next %d matched %d overrun %v (retained [%d, %d))",
			from, maxBytes, next, matched, overrun, wantNext, wantMatched, wantOverrun, m.base, m.next)
	}
	if !bytes.Equal(out, want) {
		m.fatalf("collect(%d, max %d) returned %d B differing from the model's %d B", from, maxBytes, len(out), len(want))
	}
	if !slices.Equal(pos, wantPos) {
		m.fatalf("collect(%d, max %d) left positions %v, model %v", from, maxBytes, pos, wantPos)
	}
}

func (m *backlogModel) handoff() {
	pos := m.vecArg()
	wantOK := true
	for s, p := range pos {
		if p.Before(m.from[s]) {
			wantOK = false
		}
	}
	var wantCursor uint64
	if wantOK {
		for wantCursor = m.base; wantCursor < m.next; wantCursor++ {
			i := wantCursor - m.base
			if pos[m.streams[i]].Before(m.poss[i]) {
				break
			}
		}
	}
	if cursor, ok := m.bl.handoff(pos); ok != wantOK || cursor != wantCursor {
		m.fatalf("handoff(%v) = %d, %v; model %d, %v (from %v)", pos, cursor, ok, wantCursor, wantOK, m.from)
	}
}

func (m *backlogModel) raise() {
	pos := m.vecArg()
	m.bl.raiseFrom(pos)
	for s, p := range pos {
		if m.from[s].Before(p) {
			m.from[s] = p
		}
	}
}

func (m *backlogModel) stamp() {
	seq := m.seqArg()
	var want int64
	if seq != 0 && seq < m.next {
		want = m.stamps[max(seq, m.base)-m.base]
	}
	if got := m.bl.stampAt(seq); got != want {
		m.fatalf("stampAt(%d) = %d, model %d", seq, got, want)
	}
}

// TestBacklogMatchesModel runs seeded random operation streams — frames
// of 1 B to 70 KiB, record bounds 1 to 64 — against the model.
func TestBacklogMatchesModel(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 40
	}
	for seed := 0; seed < runs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 2000+rng.Intn(6000))
		rng.Read(data)
		newBacklogModel(t, data).run()
	}
}

// FuzzBacklog drives the model test's operations from the fuzz input.
func FuzzBacklog(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 4, 0, 0, 0, 0, 5, 0, 0, 0, 0})
	f.Add([]byte{65, 0, 255, 255, 255, 3, 9, 8, 1, 255, 255, 255, 2, 7, 4, 3, 1, 1, 0, 1, 1, 5, 9, 9, 6, 1, 7, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		newBacklogModel(t, data).run()
	})
}

// TestBacklogAppendAllocsWarm: once the ring has grown to the workload's
// live bytes, appends allocate nothing.
func TestBacklogAppendAllocsWarm(t *testing.T) {
	var b backlog
	b.init(512, 2)
	small, large := make([]byte, 90), make([]byte, 1100)
	var pos persist.WALPos
	appendPair := func() {
		for i := 0; i < 9; i++ {
			pos.Off += 90
			b.append(small, 1, i%2, pos)
		}
		pos.Off += 1100
		b.append(large, 1, 1, pos)
	}
	for i := 0; i < 200; i++ {
		appendPair()
	}
	if allocs := testing.AllocsPerRun(1000, appendPair); allocs != 0 {
		t.Fatalf("warm appends allocate %.2f per 10 frames, want 0", allocs)
	}
}
