package core

import "repro/internal/sim"

// C6Model reproduces the legacy C6 entry/exit latency analysis of Sec. 3
// (based on the x86 implementation in [11]): entry is dominated by the
// L1/L2 flush, whose duration depends on the dirty fraction and the core
// frequency; context save/restore to the uncore SRAM adds more.
type C6Model struct {
	// CacheBytes is the total private cache capacity to flush.
	CacheBytes int
	// LineBytes is the cache line size.
	LineBytes int
	// CleanLineCycles is the per-line cost to inspect/invalidate a clean
	// line during the flush walk.
	CleanLineCycles float64
	// DirtyLineExtraCycles is the additional per-line cost to write back
	// a dirty line.
	DirtyLineExtraCycles float64

	// ContextBytes is the core context serialized to the S/R SRAM (~8 KB).
	ContextBytes int
	// ContextCyclesPerByte is the microcode-driven save/restore cost.
	ContextCyclesPerByte float64

	// ControlOverhead covers the remaining entry control flow and
	// power-gate controller latency.
	ControlOverhead sim.Time

	// ExitHardware is the wake-up hardware latency: power-ungating, PLL
	// relock, reset and fuse propagation (~10 us).
	ExitHardware sim.Time
	// ExitRestore is the state and microcode restoration time (~20 us).
	ExitRestore sim.Time
}

// NewC6Model returns the paper-calibrated model: flushing a 50 % dirty
// 1.1 MB cache at 800 MHz takes ~75 us; saving ~8 KB of context at
// 800 MHz takes ~9 us; total entry ~87 us; exit ~30 us.
func NewC6Model() *C6Model {
	return &C6Model{
		CacheBytes:           1088 * 1024, // 32K L1I + 32K L1D + 1M L2
		LineBytes:            64,
		CleanLineCycles:      1,
		DirtyLineExtraCycles: 4.9,
		ContextBytes:         8 * 1024,
		ContextCyclesPerByte: 0.88,
		ControlOverhead:      3 * sim.Microsecond,
		ExitHardware:         10 * sim.Microsecond,
		ExitRestore:          20 * sim.Microsecond,
	}
}

// Lines returns the number of cache lines the flush walks.
func (m *C6Model) Lines() int { return m.CacheBytes / m.LineBytes }

// FlushTime returns the L1/L2 flush duration for the given dirty
// fraction (0..1) and core frequency in Hz.
func (m *C6Model) FlushTime(dirtyFraction, freqHz float64) sim.Time {
	if dirtyFraction < 0 {
		dirtyFraction = 0
	}
	if dirtyFraction > 1 {
		dirtyFraction = 1
	}
	cycles := float64(m.Lines()) * (m.CleanLineCycles + dirtyFraction*m.DirtyLineExtraCycles)
	return sim.Time(cycles / freqHz * 1e9)
}

// SaveTime returns the context save duration at the given frequency.
func (m *C6Model) SaveTime(freqHz float64) sim.Time {
	cycles := float64(m.ContextBytes) * m.ContextCyclesPerByte
	return sim.Time(cycles / freqHz * 1e9)
}

// EntryLatency returns the full C6 entry latency at the given dirty
// fraction and frequency (paper: ~87 us at 50 % dirty, 800 MHz).
func (m *C6Model) EntryLatency(dirtyFraction, freqHz float64) sim.Time {
	return m.FlushTime(dirtyFraction, freqHz) + m.SaveTime(freqHz) + m.ControlOverhead
}

// ExitLatency returns the C6 exit latency (paper: ~30 us).
func (m *C6Model) ExitLatency() sim.Time {
	return m.ExitHardware + m.ExitRestore
}
