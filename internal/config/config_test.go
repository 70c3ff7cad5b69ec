package config

import "testing"

func TestPresetNames(t *testing.T) {
	cases := map[string]TSOCC{
		"CC-shared-to-L2":  CCSharedToL2(),
		"TSO-CC-4-basic":   Basic(),
		"TSO-CC-4-noreset": NoReset(),
		"TSO-CC-4-12-3":    C12x3(),
		"TSO-CC-4-12-0":    C12x0(),
		"TSO-CC-4-9-3":     C9x3(),
	}
	for want, cfg := range cases {
		if got := cfg.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestMaxAccesses(t *testing.T) {
	if CCSharedToL2().MaxAccesses() != 0 {
		t.Fatal("CC-shared-to-L2 must always miss on Shared")
	}
	if got := C12x3().MaxAccesses(); got != 16 {
		t.Fatalf("4-bit access counter allows %d hits, want 16", got)
	}
}

func TestWriteGroupSize(t *testing.T) {
	if C12x3().WriteGroupSize() != 8 {
		t.Fatalf("Bwg=3 group size = %d, want 8", C12x3().WriteGroupSize())
	}
	if C12x0().WriteGroupSize() != 1 {
		t.Fatal("Bwg=0 group size must be 1")
	}
}

func TestTSMax(t *testing.T) {
	if got := C12x3().TSMax(); got != 4095 {
		t.Fatalf("12-bit TSMax = %d", got)
	}
	if got := C9x3().TSMax(); got != 511 {
		t.Fatalf("9-bit TSMax = %d", got)
	}
	if Basic().TSMax() != 0 {
		t.Fatal("basic (no timestamps) TSMax must be 0")
	}
	if got := NoReset().TSMax(); got != (1<<31)-1 {
		t.Fatalf("noreset TSMax = %d", got)
	}
}

func TestTimestampsFlag(t *testing.T) {
	if Basic().Timestamps() || CCSharedToL2().Timestamps() {
		t.Fatal("timestamp-less configs report Timestamps() true")
	}
	if !C12x3().Timestamps() || !NoReset().Timestamps() {
		t.Fatal("timestamped configs report Timestamps() false")
	}
}

func TestAllPresetsUseSharedRO(t *testing.T) {
	// §4.2: every evaluated configuration includes the SharedRO opt.
	for _, c := range []TSOCC{CCSharedToL2(), Basic(), NoReset(), C12x3(), C12x0(), C9x3()} {
		if !c.SharedRO {
			t.Fatalf("%s missing SharedRO", c.Name())
		}
	}
}

func TestTable2Parameters(t *testing.T) {
	s := Table2()
	if s.Cores != 32 {
		t.Fatalf("cores = %d", s.Cores)
	}
	if s.L1Size != 32<<10 || s.L1Ways != 4 {
		t.Fatal("L1 geometry mismatch with Table 2")
	}
	if s.L2TileSize != 1<<20 || s.L2Ways != 16 {
		t.Fatal("L2 geometry mismatch with Table 2")
	}
	if s.L1HitLat != 3 {
		t.Fatal("L1 hit latency mismatch")
	}
	if s.WriteBuffer != 32 {
		t.Fatal("write buffer mismatch")
	}
	if s.MeshRows != 4 {
		t.Fatal("mesh rows mismatch")
	}
	if s.MemBase != 120 || s.MemBase+s.MemSpread != 230 {
		t.Fatal("memory latency band mismatch")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []System{
		{},
		{Cores: 4},
		{Cores: 4, L1Size: 1024, L1Ways: 2, L2TileSize: 4096, L2Ways: 4},
	}
	emptyWindow := Scaled(4)
	emptyWindow.FaultFrom, emptyWindow.FaultUntil = 10, 5
	sameEdges := Scaled(4)
	sameEdges.FaultFrom, sameEdges.FaultUntil = 7, 7
	bad = append(bad, emptyWindow, sameEdges)
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

// TestValidateFaultWindow: FaultUntil 0 leaves the window unbounded
// above, so any FaultFrom is accepted; a bounded window must be
// non-empty (TestValidateRejectsBadConfigs covers the empty ones).
func TestValidateFaultWindow(t *testing.T) {
	s := Scaled(4)
	s.FaultFrom = 10
	if err := s.Validate(); err != nil {
		t.Fatalf("open-ended fault window rejected: %v", err)
	}
	s.FaultUntil = 11
	if err := s.Validate(); err != nil {
		t.Fatalf("one-decision fault window rejected: %v", err)
	}
}

// TestValidateArbitraryCores: any core count up to MaxCores validates —
// non-square counts included, since the mesh auto-factorizes and XY
// routes ragged grids — while out-of-range counts and impossible mesh
// shapes are rejected with explicit errors.
func TestValidateArbitraryCores(t *testing.T) {
	for _, cores := range []int{1, 2, 3, 5, 7, 10, 12, 13, 48, 63, 64, 96, 100, 128, 200, 255, 256} {
		s := Scaled(cores)
		if err := s.Validate(); err != nil {
			t.Errorf("cores=%d (auto mesh): unexpected validation error: %v", cores, err)
		}
	}
	for _, tc := range []struct{ cores, rows int }{
		{6, 2},  // 2x3 rectangle
		{10, 3}, // ragged 3x4 grid, last row short
		{13, 2}, // prime count on an explicit 2-row grid
	} {
		s := Scaled(tc.cores)
		s.MeshRows = tc.rows
		if err := s.Validate(); err != nil {
			t.Errorf("cores=%d rows=%d: unexpected validation error: %v", tc.cores, tc.rows, err)
		}
	}
	bad := []System{
		func() System { s := Scaled(MaxCores + 1); return s }(),       // beyond sharing-vector width
		func() System { s := Scaled(512); return s }(),                // far beyond
		func() System { s := Scaled(4); s.MeshRows = 5; return s }(),  // more rows than cores
		func() System { s := Scaled(8); s.MeshRows = -1; return s }(), // negative rows
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad case %d (cores=%d rows=%d): expected validation error", i, s.Cores, s.MeshRows)
		}
	}
}

// TestLargePresets: the scaling presets keep Table2's per-tile shape.
func TestLargePresets(t *testing.T) {
	for _, tc := range []struct {
		sys   System
		cores int
	}{
		{Large64(), 64},
		{Large128(), 128},
		{Large256(), 256},
	} {
		if tc.sys.Cores != tc.cores {
			t.Fatalf("preset has %d cores, want %d", tc.sys.Cores, tc.cores)
		}
		if tc.sys.L1Size != Table2().L1Size || tc.sys.L2TileSize != Table2().L2TileSize {
			t.Fatalf("Large(%d) changed per-tile cache geometry", tc.cores)
		}
		if err := tc.sys.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScaledKeepsShape(t *testing.T) {
	s := Scaled(64)
	if s.Cores != 64 || s.L1Size != Table2().L1Size {
		t.Fatal("Scaled should only change core count")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
