// Package program is the workload substrate: a synthetic program image
// (instructions at addresses, control flow with parameterized dynamic
// behaviours) plus an architectural oracle that produces the committed
// instruction stream.
//
// The paper evaluates on SPECint17 binaries running under FPGA simulation;
// neither SPEC nor an FPGA is available here, so workloads are synthetic
// programs whose *branch populations* — loops with trip counts, global
// pattern branches, data-correlated branches, hard random branches, indirect
// jumps, call/return trees — are shaped per benchmark profile (see
// internal/workloads and DESIGN.md for the substitution rationale).
//
// The split between Program (static image) and Oracle (dynamic truth)
// matters for fidelity: the frontend model fetches from the static image
// along the *predicted* path — including wrong paths — while actual branch
// outcomes exist only on the committed path, exactly as in hardware.
package program

import (
	"fmt"
	"math/bits"
	"sort"
)

// Kind classifies an instruction's control-flow role.
type Kind uint8

// Instruction kinds.
const (
	KindOp Kind = iota
	KindBranch
	KindJump
	KindCall
	KindRet
	KindIndirect
)

func (k Kind) String() string {
	switch k {
	case KindOp:
		return "op"
	case KindBranch:
		return "branch"
	case KindJump:
		return "jump"
	case KindCall:
		return "call"
	case KindRet:
		return "ret"
	case KindIndirect:
		return "indirect"
	}
	return "invalid"
}

// IsCFI reports whether the kind redirects control flow.
func (k Kind) IsCFI() bool { return k != KindOp }

// Class is the execution class driving the backend timing model.
type Class uint8

// Execution classes (mapped to the BOOM issue queues of Table II).
const (
	ClassALU Class = iota
	ClassMul
	ClassLoad
	ClassStore
	ClassFP
)

func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassMul:
		return "mul"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassFP:
		return "fp"
	}
	return "invalid"
}

// Inst is one instruction of the synthetic image.
type Inst struct {
	PC     uint64
	Kind   Kind
	Class  Class
	Target uint64 // static target (branch/jump/call); 0 for ret/indirect

	Dir DirBehavior // branches: dynamic direction
	Tgt TgtBehavior // indirect jumps: dynamic target
	Mem MemBehavior // loads/stores: address stream
	Sem SemBehavior // optional computational semantics (interpreted ISAs)

	// Register dataflow for the backend's dependency model (0 = none).
	Dst, Src1, Src2 uint8
}

// Program is a closed static instruction image.
//
// Built-in behaviours keep their per-execution state (loop counters, pattern
// phases) in State slots assigned by Add, so a built Program is immutable:
// any number of concurrent Oracles — and therefore simulations — may share
// one instance.  The exception is interpreted-ISA programs, whose behaviours
// mutate a shared Machine; those set SingleUse and must be rebuilt per
// simulation (the workloads cache honours this).
type Program struct {
	Name      string
	Entry     uint64
	InstBytes int

	// SingleUse marks a program whose behaviours carry mutable state outside
	// State slots (interpreted-ISA machines); such a program supports exactly
	// one architectural execution and must never be shared or cached.
	SingleUse bool

	insts  map[uint64]*Inst
	nSlots int

	// dense is the PC index Validate builds over the image and the only one
	// At reads: dense[i] is the instruction at lo + i*InstBytes (nil in
	// gaps), so a fetch is two compares and a load, not a map lookup.  Nil
	// until Validate succeeds.
	dense []*Inst
	lo    uint64
	shift uint // log2(InstBytes)
}

// New creates an empty program.
func New(name string, entry uint64, instBytes int) *Program {
	return &Program{Name: name, Entry: entry, InstBytes: instBytes,
		insts: make(map[uint64]*Inst)}
}

// Add inserts an instruction; duplicate PCs and adding to a validated
// (finalized) image are builder bugs.
func (p *Program) Add(i *Inst) {
	if p.dense != nil {
		panic(fmt.Sprintf("program: Add at %#x after Validate", i.PC))
	}
	if _, dup := p.insts[i.PC]; dup {
		panic(fmt.Sprintf("program: duplicate instruction at %#x", i.PC))
	}
	p.insts[i.PC] = i
}

// Slots returns how many State cells the program's behaviours use (slot ids
// run 1..n; cell 0 is the shared default for unassigned behaviours).
func (p *Program) Slots() int { return p.nSlots + 1 }

// assignSlots gives every stateful behaviour its State slot, in PC order so
// two builds of the same program assign identically.  A behaviour shared by
// several instructions keeps its first assignment (shared dynamic state,
// matching the semantics it had when the state lived in the struct).
func (p *Program) assignSlots() {
	pcs := make([]uint64, 0, len(p.insts))
	for pc := range p.insts {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(a, b int) bool { return pcs[a] < pcs[b] })
	for _, pc := range pcs {
		i := p.insts[pc]
		for _, b := range []any{i.Dir, i.Tgt, i.Mem, i.Sem} {
			if s, ok := b.(slotted); ok && s.slotID() == 0 {
				p.nSlots++
				s.setSlot(p.nSlots)
			}
		}
	}
}

// At returns the instruction at pc, or nil outside the image (wrong-path
// fetch beyond the program fetches garbage, modelled as nil -> NOP).  Before
// a successful Validate the image has no index and At returns nil.
func (p *Program) At(pc uint64) *Inst {
	off := pc - p.lo // wraps for pc < lo, failing the bound below
	if i := off >> p.shift; i < uint64(len(p.dense)) && off == i<<p.shift {
		return p.dense[i]
	}
	return nil
}

// buildIndex fills the dense PC index.  Every instruction must sit on the
// InstBytes grid (a power of two) from the lowest PC; builders lay images
// out that way, so anything else is rejected.  Validating a finalized image
// again writes nothing, so a shared Program stays free of data races.
func (p *Program) buildIndex() error {
	if p.dense != nil {
		return nil
	}
	ib := uint64(p.InstBytes)
	if ib == 0 || ib&(ib-1) != 0 {
		return fmt.Errorf("program %s: instruction size %d is not a power of two", p.Name, p.InstBytes)
	}
	lo, hi := ^uint64(0), uint64(0)
	for pc := range p.insts {
		lo, hi = min(lo, pc), max(hi, pc)
	}
	shift := uint(bits.TrailingZeros64(ib))
	dense := make([]*Inst, (hi-lo)>>shift+1)
	for pc, i := range p.insts {
		if (pc-lo)&(ib-1) != 0 {
			return fmt.Errorf("program %s: inst at %#x is off the %d-byte grid from %#x", p.Name, pc, ib, lo)
		}
		dense[(pc-lo)>>shift] = i
	}
	p.dense, p.lo, p.shift = dense, lo, shift
	return nil
}

// Len returns the number of instructions in the image.
func (p *Program) Len() int { return len(p.insts) }

// Validate checks the image is closed: every static target exists, every
// branch has a direction behaviour, every indirect a target behaviour.  It
// also assigns State slots to stateful behaviours and builds the dense PC
// index behind At, finalizing the image:
// after a successful Validate the Program is immutable (unless SingleUse)
// and may be shared across concurrent simulations.
func (p *Program) Validate() error {
	p.assignSlots()
	for pc, i := range p.insts {
		if i.PC != pc {
			return fmt.Errorf("program %s: inst PC %#x filed under %#x", p.Name, i.PC, pc)
		}
		switch i.Kind {
		case KindBranch:
			if i.Dir == nil {
				return fmt.Errorf("program %s: branch at %#x has no direction behaviour", p.Name, pc)
			}
			if p.insts[i.Target] == nil {
				return fmt.Errorf("program %s: branch at %#x targets %#x outside image", p.Name, pc, i.Target)
			}
		case KindJump, KindCall:
			if p.insts[i.Target] == nil {
				return fmt.Errorf("program %s: %s at %#x targets %#x outside image", p.Name, i.Kind, pc, i.Target)
			}
		case KindIndirect:
			if i.Tgt == nil {
				return fmt.Errorf("program %s: indirect at %#x has no target behaviour", p.Name, pc)
			}
		}
		if i.Kind == KindOp || i.Kind == KindBranch {
			// Fall-through successor must exist.
			if p.insts[pc+uint64(p.InstBytes)] == nil {
				return fmt.Errorf("program %s: %s at %#x falls through outside image", p.Name, i.Kind, pc)
			}
		}
		if (i.Class == ClassLoad || i.Class == ClassStore) && i.Mem == nil {
			return fmt.Errorf("program %s: memory op at %#x has no address behaviour", p.Name, pc)
		}
	}
	if p.insts[p.Entry] == nil {
		return fmt.Errorf("program %s: entry %#x outside image", p.Name, p.Entry)
	}
	return p.buildIndex()
}
