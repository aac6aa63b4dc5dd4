// Package symexec implements the selective symbolic executor for HS32
// firmware: the software half of HardSnap's virtual machine. It is a
// KLEE-style forking interpreter — each state carries a symbolic
// register file, a copy-on-write paged symbolic memory and a path
// condition — extended, as in the paper, with a hardware snapshot
// identifier per state and a concretization policy at the
// hardware/software boundary.
package symexec

import (
	"hardsnap/internal/expr"
	"hardsnap/internal/isa"
)

// Status describes where a state's execution stands.
type Status int

// State statuses.
const (
	StatusRunning Status = iota + 1
	StatusHalted
	StatusAborted
	StatusAssertFail
	StatusFault
	StatusInfeasible
	StatusBudget
	// StatusUnknown marks a state parked because the solver could not
	// decide its path condition within the conflict budget. Unlike
	// StatusInfeasible the path may still be feasible; it is reported
	// separately so budget-starved paths are never silently pruned.
	StatusUnknown
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusHalted:
		return "halted"
	case StatusAborted:
		return "aborted"
	case StatusAssertFail:
		return "assert-failed"
	case StatusFault:
		return "fault"
	case StatusInfeasible:
		return "infeasible"
	case StatusBudget:
		return "budget"
	case StatusUnknown:
		return "unknown"
	}
	return "?"
}

// SnapshotID identifies the hardware snapshot bound to a software
// state. Zero means "no hardware snapshot yet" (the state has not
// touched hardware).
type SnapshotID uint64

// State is one symbolic execution state: the software 3-tuple
// {PC, stack/registers, memory} of the paper plus the hardware
// snapshot identifier that extends it to a full HW/SW state.
type State struct {
	ID     uint64
	Parent uint64

	PC   uint32
	Regs [isa.NumRegs]*expr.Term

	// Mem is the state's symbolic memory.
	Mem *Memory

	// Constraints is the path condition (conjunction of width-1
	// terms).
	Constraints []*expr.Term

	// HWSnapshot binds this state to its private hardware state.
	HWSnapshot SnapshotID

	// Interrupt handling state (mirrors the concrete VM).
	EPC        uint32
	InHandler  bool
	IRQPending uint32

	Status Status
	// Err carries detail for StatusFault.
	Err error
	// Steps counts retired instructions on this path.
	Steps uint64
	// Console accumulates putchar/putint output.
	Console []byte
	// Model holds a satisfying assignment when the state terminated
	// in a way worth reporting (assert failure, abort).
	Model expr.Assignment
	// SymInputs records every make-symbolic buffer registered on this
	// path, in program order; used for test-vector extraction.
	SymInputs []SymInput
}

// SymInput describes one make-symbolic buffer.
type SymInput struct {
	Tag  uint32
	Addr uint32
	Len  uint32
}

// Fork clones the state for a new path.
func (st *State) Fork(newID uint64) *State {
	c := &State{
		ID:         newID,
		Parent:     st.ID,
		PC:         st.PC,
		Regs:       st.Regs,
		Mem:        st.Mem.Clone(),
		HWSnapshot: 0, // assigned by the snapshot controller on demand
		EPC:        st.EPC,
		InHandler:  st.InHandler,
		IRQPending: st.IRQPending,
		Status:     st.Status,
		Steps:      st.Steps,
	}
	c.Constraints = make([]*expr.Term, len(st.Constraints), len(st.Constraints)+1)
	copy(c.Constraints, st.Constraints)
	c.Console = append([]byte(nil), st.Console...)
	c.SymInputs = append([]SymInput(nil), st.SymInputs...)
	return c
}

// Clone copies the state verbatim — same ID, parent, status and steps
// — so the copy can be executed and mutated without disturbing the
// original (replayed subtree attempts in the parallel engine). The
// hardware snapshot reference is carried over as-is; a caller that
// will release the clone's snapshot must first rebind it to a
// reference the caller owns.
func (st *State) Clone() *State {
	c := *st
	if st.Mem != nil {
		c.Mem = st.Mem.Clone()
	}
	c.Constraints = append([]*expr.Term(nil), st.Constraints...)
	c.Console = append([]byte(nil), st.Console...)
	c.SymInputs = append([]SymInput(nil), st.SymInputs...)
	if st.Model != nil {
		c.Model = make(expr.Assignment, len(st.Model))
		for k, v := range st.Model {
			c.Model[k] = v
		}
	}
	return &c
}

// AddConstraint conjoins a path constraint.
func (st *State) AddConstraint(c *expr.Term) {
	st.Constraints = append(st.Constraints, c)
}
