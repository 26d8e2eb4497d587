package kernel

import (
	"testing"

	"oltpsim/internal/memref"
)

func TestRegionPlacement(t *testing.T) {
	as := NewAddressSpace(8)
	as.AddRegion(Region{Name: "rr", Base: 0, Size: 64 * memref.PageBytes, Placement: RoundRobinPages})
	as.AddRegion(Region{Name: "local3", Base: 1 << 30, Size: memref.PageBytes, Placement: NodeLocal, Node: 3})

	// Round-robin: page i of the region lives on node i%8.
	for p := 0; p < 16; p++ {
		addr := uint64(p * memref.PageBytes)
		if got := as.HomeOf(addr); got != p%8 {
			t.Fatalf("rr page %d home %d, want %d", p, got, p%8)
		}
	}
	if as.HomeOf(1<<30+100) != 3 {
		t.Fatal("node-local region not on node 3")
	}
}

func TestHomeOfUnmappedFallsBack(t *testing.T) {
	as := NewAddressSpace(4)
	// No regions: still total function, page round-robin.
	if as.HomeOf(0) != 0 || as.HomeOf(memref.PageBytes) != 1 {
		t.Fatal("fallback placement wrong")
	}
}

func TestRegionOverlapPanics(t *testing.T) {
	as := NewAddressSpace(2)
	as.AddRegion(Region{Name: "a", Base: 0, Size: 8192, Placement: RoundRobinPages})
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping AddRegion did not panic")
		}
	}()
	as.AddRegion(Region{Name: "b", Base: 4096, Size: 8192, Placement: RoundRobinPages})
}

func TestZeroSizeRegionPanics(t *testing.T) {
	as := NewAddressSpace(2)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size AddRegion did not panic")
		}
	}()
	as.AddRegion(Region{Name: "z", Base: 0, Size: 0})
}

func TestRegionOf(t *testing.T) {
	as := NewAddressSpace(2)
	as.AddRegion(Region{Name: "a", Base: 8192, Size: 8192, Placement: RoundRobinPages})
	if r := as.RegionOf(8192); r == nil || r.Name != "a" {
		t.Fatal("RegionOf missed the region start")
	}
	if r := as.RegionOf(8192 + 8191); r == nil {
		t.Fatal("RegionOf missed the region end")
	}
	if as.RegionOf(0) != nil || as.RegionOf(16384) != nil {
		t.Fatal("RegionOf matched outside the region")
	}
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	as := NewAddressSpace(8)
	size := uint64(800 * memref.PageBytes)
	as.AddRegion(Region{Name: "sga", Base: 0, Size: size, Placement: RoundRobinPages})
	counts := make([]int, 8)
	for p := uint64(0); p < 800; p++ {
		counts[as.HomeOf(p*memref.PageBytes)]++
	}
	for n, c := range counts {
		if c != 100 {
			t.Fatalf("node %d got %d pages, want 100 (the paper's 1-in-8 locality)", n, c)
		}
	}
}

func TestTotalSizeAndRegions(t *testing.T) {
	as := NewAddressSpace(2)
	as.AddRegion(Region{Name: "a", Base: 0, Size: 8192})
	as.AddRegion(Region{Name: "b", Base: 8192, Size: 16384})
	if as.TotalSize() != 24576 {
		t.Fatalf("total %d", as.TotalSize())
	}
	if len(as.Regions()) != 2 || as.Nodes() != 2 {
		t.Fatal("region table wrong")
	}
}

func TestPlacementString(t *testing.T) {
	if RoundRobinPages.String() != "round-robin" || NodeLocal.String() != "node-local" {
		t.Fatal("placement strings wrong")
	}
}
