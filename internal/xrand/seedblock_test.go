package xrand

import (
	"sync"
	"testing"
)

func TestSeedBlocksDisjoint(t *testing.T) {
	var s SeedBlocks
	const start = 2022
	a := s.Next(start)
	b := s.Next(start)
	if a == b {
		t.Fatal("two blocks share a base")
	}
	// Blocks are start-relative multiples of the block size.
	if (a-start)%(1<<SeedBlockBits) != 0 || (b-start)%(1<<SeedBlockBits) != 0 {
		t.Fatalf("bases %d/%d not aligned to 2^%d above start", a, b, SeedBlockBits)
	}
	// Per-iteration seeds from different blocks never collide as long as
	// each caller stays below the block size.
	span := uint64(1) << SeedBlockBits
	if a+span-1 >= b && b+span-1 >= a {
		t.Fatalf("blocks [%d,+%d) and [%d,+%d) overlap", a, span, b, span)
	}
}

func TestSeedBlocksZeroValueAndStartOffset(t *testing.T) {
	var s SeedBlocks
	base := s.Next(7)
	if base <= 7 {
		t.Fatalf("block base %d not above start", base)
	}
	if got := base - 7; got != 1<<SeedBlockBits {
		t.Fatalf("first block offset %d, want 2^%d", got, SeedBlockBits)
	}
}

// TestClassReplicaPlaneDisjoint is the regression proof behind the
// class/replica seed plane's documented operating envelope: inside it,
// no node seed and no SeedBlocks block can ever collide with a
// (class, replica) seed, and distinct (class, replica) pairs never
// share one.
func TestClassReplicaPlaneDisjoint(t *testing.T) {
	const maxNodeSeed = uint64(1) << 32 // envelope: node seeds < 2^32
	planeLo := ClassSeedBase

	// Raw node seeds sit far below the plane.
	if maxNodeSeed >= planeLo {
		t.Fatalf("node-seed envelope %#x reaches the plane origin %#x", maxNodeSeed, planeLo)
	}
	// SeedBlocks blocks started from envelope seeds stay below the plane
	// even after an absurd number of Next calls (2^30 blocks of 2^20).
	if worst := maxNodeSeed + (uint64(1)<<30)<<SeedBlockBits; worst >= planeLo {
		t.Fatalf("SeedBlocks envelope %#x reaches the plane origin %#x", worst, planeLo)
	}

	// Distinct (class, replica) pairs get distinct seeds, inside the
	// owning class block, ordered, and aligned to replica sub-blocks.
	seen := make(map[uint64]bool)
	for class := 0; class < 64; class++ {
		blockLo := ClassSeedBase + uint64(class)<<SeedBlockBits
		for rep := 0; rep < MaxReplicas; rep += 97 {
			s := ClassReplicaSeed(class, rep)
			if seen[s] {
				t.Fatalf("seed %#x handed to two (class,replica) pairs", s)
			}
			seen[s] = true
			if s < blockLo || s >= blockLo+1<<SeedBlockBits {
				t.Fatalf("replica %d of class %d escaped its class block", rep, class)
			}
			if (s-blockLo)%(1<<ReplicaBlockBits) != 0 {
				t.Fatalf("seed %#x not aligned to a replica sub-block", s)
			}
		}
	}
}

// TestFaultPlaneDisjoint is the regression proof behind the fault seed
// plane: inside the documented envelope no node seed, no SeedBlocks
// block, and no class/replica seed can collide with
// a fault-process seed, and restart-remixed node seeds stay out too.
func TestFaultPlaneDisjoint(t *testing.T) {
	const (
		maxNodeSeed = uint64(1) << 32 // envelope: node seeds < 2^32
		maxRestarts = 1 << 12         // envelope: restarts < 4096 per node
	)
	planeLo := FaultSeedBase
	planeHi := FaultSeedBase + 1<<SeedBlockBits // exclusive

	// Every FaultSeed lands inside the plane, regardless of user input.
	for _, s := range []uint64{0, 1, 42, maxNodeSeed - 1, ^uint64(0), FaultSeedBase} {
		got := FaultSeed(s)
		if got < planeLo || got >= planeHi {
			t.Fatalf("FaultSeed(%#x) = %#x escapes the plane [%#x,%#x)", s, got, planeLo, planeHi)
		}
	}

	// Raw node seeds and SeedBlocks blocks started from them sit far
	// below the plane (same envelope as the class/replica proof).
	if worst := maxNodeSeed + (uint64(1)<<30)<<SeedBlockBits; worst >= planeLo {
		t.Fatalf("node/SeedBlocks envelope %#x reaches the fault plane origin %#x", worst, planeLo)
	}
	// The class/replica plane starts at 2^62, above the fault plane's end.
	if planeHi > ClassSeedBase {
		t.Fatalf("fault plane end %#x overlaps the class/replica plane origin %#x", planeHi, ClassSeedBase)
	}

	// Restart-remixed seeds are s ^ n·stride with s < 2^32, so the XOR
	// only perturbs the low 32 bits of the stride product. Enumerate
	// every stride product in the envelope and check the conservative
	// 2^32-widened plane misses them all.
	const pad = uint64(1) << 32
	for n := 0; n < maxRestarts; n++ {
		mixed := uint64(n) * RestartSeedStride
		if mixed >= planeLo-pad && mixed < planeHi+pad {
			t.Fatalf("restart %d stride product %#x within 2^32 of the fault plane", n, mixed)
		}
	}
}

// TestRestartSeedRemix pins the restart remix formula and the property
// the cursor relies on: rebuild n >= 1 never replays the original seed,
// and distinct rebuild counts get distinct seeds.
func TestRestartSeedRemix(t *testing.T) {
	if got := RestartSeed(42, 0); got != 42 {
		t.Fatalf("RestartSeed(42,0) = %d, want identity", got)
	}
	seen := map[uint64]bool{42: true}
	for n := 1; n < 256; n++ {
		s := RestartSeed(42, n)
		if s == 42 {
			t.Fatalf("rebuild %d replays the original seed", n)
		}
		if seen[s] {
			t.Fatalf("rebuild %d collides with an earlier rebuild", n)
		}
		seen[s] = true
	}
	var stride uint64 = RestartSeedStride
	if got, want := RestartSeed(7, 3), uint64(7)^3*stride; got != want {
		t.Fatalf("RestartSeed(7,3) = %#x, want %#x", got, want)
	}
}

// TestClassReplicaSeedPanicsOutsidePlane pins the guard rails.
func TestClassReplicaSeedPanicsOutsidePlane(t *testing.T) {
	for _, bad := range [][2]int{{-1, 0}, {0, -1}, {0, MaxReplicas}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ClassReplicaSeed(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			ClassReplicaSeed(bad[0], bad[1])
		}()
	}
}

func TestSeedBlocksConcurrent(t *testing.T) {
	var s SeedBlocks
	const n = 64
	bases := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bases[i] = s.Next(1)
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool, n)
	for _, b := range bases {
		if seen[b] {
			t.Fatalf("base %d handed out twice", b)
		}
		seen[b] = true
	}
}
