package target

import "fmt"

// Transfer moves the complete hardware state from one target to the
// other (paper E7): a Save at the source's snapshot cost followed by
// a Restore at the destination's. Both targets must host the same
// peripheral set.
func Transfer(from, to *Target) error {
	st, err := from.Save()
	if err != nil {
		return fmt.Errorf("target: transfer save from %s: %w", from.name, err)
	}
	if err := to.Restore(st); err != nil {
		return fmt.Errorf("target: transfer restore to %s: %w", to.name, err)
	}
	return nil
}

// SetStandby designates a simulator target as the failover vehicle:
// when this target's link dies persistently, the orchestrator
// restores the last consistent snapshot onto the standby, replays the
// operation journal, and transparently adopts it — ports, pending
// operations and the analysis keep running. The standby must host the
// same peripheral instances. Passing nil clears the standby.
//
// The current state is captured as the initial failover anchor.
func (t *Target) SetStandby(sb *Target) error {
	if sb == nil {
		t.standby = nil
		t.journal = nil
		t.journalFull = false
		return nil
	}
	if sb == t {
		return fmt.Errorf("target %s: cannot be its own standby", t.name)
	}
	if sb.kind != KindSimulator {
		return fmt.Errorf("target %s: standby must be a simulator target, got %s", t.name, sb.kind)
	}
	if len(sb.periphs) != len(t.periphs) {
		return fmt.Errorf("target %s: standby %s hosts %d peripherals, need %d",
			t.name, sb.name, len(sb.periphs), len(t.periphs))
	}
	for name := range t.periphs {
		if _, ok := sb.periphs[name]; !ok {
			return fmt.Errorf("target %s: standby %s does not host peripheral %q", t.name, sb.name, name)
		}
	}
	t.standby = sb
	t.lastGood = t.snapshotRaw()
	t.journal = nil
	t.journalFull = false
	return nil
}

// failover adopts the standby backend after a persistent link
// failure: restore the last consistent snapshot, replay the journal,
// swap the execution vehicle. With no standby (or an overflowed
// journal) the target dies and the caller receives a fatal error, so
// only the affected analysis path is killed.
func (t *Target) failover(op string, cause error) error {
	sb := t.standby
	if sb == nil || t.journalFull {
		t.dead = true
		reason := "no standby target configured"
		if t.journalFull {
			reason = "op journal overflowed since the last snapshot"
		}
		return fatalf(op, "target %s: persistent link failure (%s): %v", t.name, reason, cause)
	}
	t.standby = nil
	t.faults = nil // the dead link goes with the old backend

	// Adopt the standby's execution vehicle. Ports stay valid: they
	// resolve peripheral instances through the Target, and bumping
	// backend drops the instances they cached.
	t.kind = sb.kind
	t.costs = sb.costs
	t.scan = sb.scan
	t.periphs = sb.periphs
	t.order = sb.order
	t.backend++
	t.powerOn = sb.powerOn

	// Re-arm assertions on the adopted backend (now a simulator, so
	// they are accepted even if the old vehicle refused them).
	for _, inst := range t.order {
		inst.asserts = nil
	}
	asserts := t.asserts
	t.asserts = nil
	for _, a := range asserts {
		if err := t.AddAssertion(a); err != nil {
			t.dead = true
			return fatalf(op, "target %s: failover assertion re-arm: %v", t.name, err)
		}
	}

	// Bring the standby to the last consistent state and replay the
	// journal since then; the deterministic RTL reproduces the exact
	// pre-failure hardware state.
	if err := t.applyState(t.lastGood); err != nil {
		t.dead = true
		return fatalf(op, "target %s: failover restore: %v", t.name, err)
	}
	journal := t.journal
	t.journal = nil
	for _, j := range journal {
		var err error
		switch j.op {
		case jWrite:
			err = t.execWrite(j.periph, j.addr, j.val)
		case jRead:
			_, err = t.execRead(j.periph, j.addr)
		case jAdvance:
			err = t.execAdvance(j.n)
		}
		if err != nil {
			t.dead = true
			return fatalf(op, "target %s: failover journal replay: %v", t.name, err)
		}
	}
	// The replayed journal still describes the state since lastGood.
	t.journal = journal
	t.stats.Failovers++
	// The adopted backend's simulators carry fresh dirty tracking;
	// re-anchor so generations and delta restores stay sound.
	t.reanchor(true)
	return nil
}
