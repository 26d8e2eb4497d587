package noc

import "testing"

func TestDims(t *testing.T) {
	cases := []struct{ nodes, w, h int }{
		{8, 4, 2}, {16, 4, 4}, {4, 2, 2}, {1, 1, 1}, {6, 3, 2},
	}
	for _, c := range cases {
		w, h := dims(c.nodes)
		if w != c.w || h != c.h {
			t.Errorf("dims(%d) = %dx%d, want %dx%d", c.nodes, w, h, c.w, c.h)
		}
	}
}

// TestHopCountTorus: the shortest way round a ring wraps. On the 5x1 ring
// 0 -> 4 is one hop west, so a second such message queues behind the first
// on that link while 0 -> 1, east, does not; on the 3x3 torus the same
// holds for 0 -> 6, one hop north, against 0 -> 3, south.
func TestHopCountTorus(t *testing.T) {
	cases := []struct{ nodes, wrap, other int }{
		{5, 4, 1},
		{9, 6, 3},
	}
	for _, c := range cases {
		n := New(c.nodes)
		n.Send(0, c.wrap, 0)
		if q := n.Send(0, c.wrap, 0); q != LinkBusyCycles {
			t.Errorf("%d nodes: second 0->%d queued %d, want %d", c.nodes, c.wrap, q, LinkBusyCycles)
		}
		if q := n.Send(0, c.other, 0); q != 0 {
			t.Errorf("%d nodes: 0->%d queued %d behind the wrapped 0->%d", c.nodes, c.other, q, c.wrap)
		}
	}
}

// TestSendLatency: an uncontended message does not queue, and it reaches
// each link HopCycles after the one before. 0 -> 5 on the 4x2 torus goes
// east to 1, then south to 5, so it holds 1's south link from HopCycles
// for LinkBusyCycles.
func TestSendLatency(t *testing.T) {
	cases := []struct {
		at   uint64
		want uint32
	}{
		{HopCycles, LinkBusyCycles},
		{HopCycles + LinkBusyCycles, 0},
	}
	for _, c := range cases {
		n := New(8)
		if q := n.Send(0, 5, 0); q != 0 {
			t.Fatalf("uncontended send queued %d", q)
		}
		if q := n.Send(1, 5, c.at); q != c.want {
			t.Errorf("1->5 at %d queued %d, want %d", c.at, q, c.want)
		}
	}
	if q := New(8).Send(3, 3, 0); q != 0 {
		t.Fatalf("self-send queued %d", q)
	}
}

func TestLinkContention(t *testing.T) {
	n := New(4)
	n.Send(0, 1, 100)
	if q := n.Send(0, 1, 100); q != LinkBusyCycles { // same link, same instant
		t.Fatalf("second message on a busy link queued %d, want %d", q, LinkBusyCycles)
	}
}

func TestBadTorusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero nodes did not panic")
		}
	}()
	New(0)
}
