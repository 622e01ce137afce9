// Package kernel implements a deterministic synthetic kernel used as the
// fuzzing substrate.
//
// The kernel is a collection of system-call handlers compiled to
// control-flow graphs of basic blocks. Branch predicates test the flattened
// argument slots of the invoking call (flag bits, enum values, ranges,
// buffer lengths, pointer nullness) and persistent kernel state (resource
// validity, subsystem counters), so that which kernel code executes depends
// on the test program's arguments exactly as in a real kernel. Each basic
// block carries a token sequence modeled on x86 assembly, in which the
// argument registers and struct offsets that a branch inspects are visible —
// this is the signal PMM learns from, mirroring how the paper's Transformer
// encoder reads real disassembly.
//
// Kernels are generated deterministically from a version string ("6.8",
// "6.9", "6.10"): later versions share most subsystems with earlier ones and
// add or perturb a few, reproducing the release drift across which the paper
// evaluates model generalization.
package kernel

import (
	"fmt"

	"github.com/repro/snowplow/internal/spec"
)

// BlockID indexes a basic block within a Kernel. The zero value is reserved
// as "no block" (NoBlock).
type BlockID int

// NoBlock marks the absence of a successor.
const NoBlock BlockID = -1

// BlockKind classifies basic blocks.
type BlockKind int

// The block kinds.
const (
	BlockBody   BlockKind = iota // straight-line code, one successor
	BlockBranch                  // two-way conditional on a Predicate
	BlockReturn                  // handler exit
	BlockCrash                   // reaching this block crashes the kernel
)

// Block is one kernel basic block.
type Block struct {
	ID        BlockID
	Addr      uint64   // synthetic address (stable across runs)
	Subsystem string   // e.g. "fs", "scsi"
	Fn        string   // containing function name, e.g. "ata_pio_sector"
	Tokens    []string // assembly-like token sequence

	Kind     BlockKind
	Pred     *Predicate // for BlockBranch
	Taken    BlockID    // successor when Pred holds (BlockBranch)
	NotTaken BlockID    // successor when Pred fails (BlockBranch)
	Next     BlockID    // successor for BlockBody

	Effect *Effect    // optional state mutation applied on execution
	Crash  *CrashSpec // for BlockCrash
}

// CrashSpec describes the failure a crash block manifests.
type CrashSpec struct {
	// Title is the crash description line, e.g.
	// "KASAN: out-of-bounds Write in ata_pio_sector".
	Title string
	// Category is the Table-3 manifestation class, e.g. "general protection fault".
	Category string
	// Detector names the mechanism that reports it (KASAN, BUG(), ...).
	Detector string
	// KnownSince marks crashes present in the simulated Syzbot known list
	// ("" means previously unknown — a new crash when found).
	KnownSince string
	// Flaky marks crashes that manifest nondeterministically (e.g. races):
	// reaching the crash block triggers the crash only sometimes, so
	// reproducer extraction often fails, as §5.3.2 observes.
	Flaky bool
}

// EffectKind classifies state mutations.
type EffectKind int

// The effect kinds.
const (
	EffectNone          EffectKind = iota
	EffectIncCounter               // Counters[Key]++
	EffectSetCounter               // Counters[Key] = Value
	EffectCloseResource            // invalidate the handle in slot Slot
)

// Effect is a kernel-state mutation attached to a block.
type Effect struct {
	Kind  EffectKind
	Key   string
	Value uint64
	Slot  int
}

// Handler is the compiled CFG of one syscall variant.
type Handler struct {
	Call  *spec.Syscall
	Entry BlockID
	Exit  BlockID // canonical return block
	// Blocks lists every block belonging to this handler, in creation order
	// (Entry first).
	Blocks []BlockID
}

// Kernel is a full synthetic kernel build.
type Kernel struct {
	Version  string
	Target   *spec.Registry
	Blocks   []Block
	Handlers map[string]*Handler // syscall variant name -> handler

	// SyscallEntry/SyscallExit give, per variant, the blocks that the
	// kernel-user context-switch edges attach to.
	bugs []*CrashSpec
}

// Block returns the block with the given id.
func (k *Kernel) Block(id BlockID) *Block { return &k.Blocks[id] }

// NumBlocks returns the total number of basic blocks.
func (k *Kernel) NumBlocks() int { return len(k.Blocks) }

// Handler returns the handler for a syscall variant, or nil.
func (k *Kernel) Handler(variant string) *Handler { return k.Handlers[variant] }

// Bugs returns the planted crash specifications (for triage fixtures).
func (k *Kernel) Bugs() []*CrashSpec { return k.bugs }

// State is the mutable kernel state a test executes against.
type State struct {
	// Handles maps live resource handle values to their kind.
	Handles map[uint64]string
	// NextHandle is the next handle value to allocate.
	NextHandle uint64
	// Counters holds named subsystem counters.
	Counters map[string]uint64
}

// NewState returns a pristine boot state.
func NewState() *State {
	return &State{Handles: map[uint64]string{}, NextHandle: 3, Counters: map[string]uint64{}}
}

// Snapshot returns a deep copy (the simulated VM snapshot of §3.1).
func (s *State) Snapshot() *State {
	c := &State{
		Handles:  make(map[uint64]string, len(s.Handles)),
		Counters: make(map[string]uint64, len(s.Counters)),
	}
	c.Restore(s)
	return c
}

// Restore overwrites s with a deep copy of from, reusing s's map storage,
// so an executor that starts every program from one snapshot can rewind a
// scratch state instead of allocating a fresh Snapshot.
func (s *State) Restore(from *State) {
	clear(s.Handles)
	for k, v := range from.Handles {
		s.Handles[k] = v
	}
	clear(s.Counters)
	for k, v := range from.Counters {
		s.Counters[k] = v
	}
	s.NextHandle = from.NextHandle
}

// AllocHandle allocates a live resource handle of the given kind.
func (s *State) AllocHandle(kind string) uint64 {
	h := s.NextHandle
	s.NextHandle++
	s.Handles[h] = kind
	return h
}

// CloseHandle invalidates a handle; it is a no-op for unknown handles.
func (s *State) CloseHandle(h uint64) { delete(s.Handles, h) }

// ValidHandle reports whether h is a live handle of the given kind
// (any kind if kind is empty).
func (s *State) ValidHandle(h uint64, kind string) bool {
	k, ok := s.Handles[h]
	return ok && (kind == "" || k == kind)
}

// String summarizes the kernel for logs.
func (k *Kernel) String() string {
	return fmt.Sprintf("kernel %s: %d handlers, %d blocks, %d planted bugs",
		k.Version, len(k.Handlers), len(k.Blocks), len(k.bugs))
}
