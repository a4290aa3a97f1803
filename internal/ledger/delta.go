package ledger

import (
	"repro/internal/campaign"
	"repro/internal/exploits"
)

// The resume planner. A delta rerun walks the full expected matrix of
// the current configuration in dispatch order and, for every cell,
// either reuses the prior record's entry or schedules a re-execution.
// An entry is reusable when it exists (a canceled cell never enters the
// canonical record, so interrupted work is simply absent) and its
// scenario's declarative spec digest still matches the live registry —
// a changed or new spec invalidates its cells; corpus growth adds
// absent ones. Failed cells are reused too: under a fixed chaos seed a
// failure is a deterministic outcome, not a flake.

// Delta is a resume plan: the entries carried over from the prior
// record and the cells to re-execute, both in dispatch order.
type Delta struct {
	// Reused are the prior record's still-valid entries.
	Reused []*Entry
	// Rerun are the cells to execute, in dispatch order.
	Rerun []campaign.CellRef
	// Stale counts prior entries invalidated by a spec change (a subset
	// of what Rerun re-executes; absent cells are not counted).
	Stale int
	// Expected is the full matrix size of the current configuration.
	Expected int
}

// PlanDelta computes the resume plan for cfg against a prior record.
// With a nil prior record everything reruns — a fresh campaign is the
// degenerate delta. The prior record must be Compatible with cfg;
// callers enforce that (ErrIncompatible) before planning.
func PlanDelta(prev *Record, cfg Config) Delta {
	refs := campaign.MatrixRefs(cfg.Versions, exploits.Specs())
	d := Delta{Expected: len(refs)}
	for _, ref := range refs {
		if prev != nil {
			if e := prev.EntryByKey(Key{Scenario: ref.UseCase, Version: ref.Version, Mode: string(ref.Mode), Seed: cfg.Seed}); e != nil {
				// MatrixRefs names only registry specs, so the lookup holds.
				if s, _ := exploits.SpecByName(ref.UseCase); e.SpecDigest == s.Digest() {
					d.Reused = append(d.Reused, e)
					continue
				}
				d.Stale++
			}
		}
		d.Rerun = append(d.Rerun, ref)
	}
	return d
}
