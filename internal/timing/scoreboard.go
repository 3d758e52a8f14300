package timing

import (
	"math/bits"

	"repro/internal/exec"
	"repro/internal/ptx"
)

// warpCtx is the per-warp pipeline state: the warp's functional state plus
// the scoreboard tracking when each register slot becomes readable and when
// the warp may issue again after a structural stall. A warpCtx is owned by
// exactly one SM core (and within it, one scheduler), so it is never
// touched by two workers concurrently.
type warpCtx struct {
	cta        *exec.CTA
	slot       *ctaSlot // resident CTA slot, flagged when the warp steps
	warp       *exec.Warp
	runID      int      // dense per-drain id of the owning grid (stat attribution)
	regReady   []uint64 // scoreboard: per register slot, cycle it becomes readable
	minIssueAt uint64   // structural stall (atomics, retry delays)

	// srcReadyAt caches the cycle the next instruction's sources become
	// readable, recorded when the scheduler finds the warp data-stalled.
	// Only the warp's own steps change its next instruction or its
	// scoreboard, and it cannot step before srcReadyAt, so the value
	// stays exact for every cycle before it.
	srcReadyAt uint64
}

// srcReady consults the scoreboard for every register in's source slot
// list (guard predicate, register sources, memory bases, vector elements;
// see exec.Inst). It returns whether all are readable at cycle now, and
// if not the cycle at which the latest one becomes ready. Destination
// registers are not checked: in-order issue makes WAW safe because
// writes complete in latency order per class.
func (w *warpCtx) srcReady(in *exec.Inst, now uint64) (bool, uint64) {
	var latest uint64
	for _, slot := range in.SrcSlots {
		if r := w.regReady[slot]; r > latest {
			latest = r
		}
	}
	return latest <= now, latest
}

// markDst sets destination registers busy until `ready`.
func (w *warpCtx) markDst(in *exec.Inst, ready uint64) {
	for _, slot := range in.DstSlots {
		w.regReady[slot] = ready
	}
}

// isSFU reports whether op runs on the special-function units.
func isSFU(op ptx.Op) bool {
	switch op {
	case ptx.OpSqrt, ptx.OpRsqrt, ptx.OpRcp, ptx.OpLg2, ptx.OpEx2, ptx.OpSin, ptx.OpCos:
		return true
	}
	return false
}

// latencyClass returns the cycles until an ALU instruction's result is
// readable.
func latencyClass(cfg *Config, in *exec.Inst) int {
	switch {
	case isSFU(in.Op):
		return cfg.SFULat
	case in.Op == ptx.OpDiv || in.Op == ptx.OpRem:
		if in.T.Float() {
			return cfg.SFULat
		}
		return cfg.IntDivLat
	}
	return cfg.ALULat
}

func popcount(m uint32) int { return bits.OnesCount32(m) }
