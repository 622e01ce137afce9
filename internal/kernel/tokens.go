package kernel

import (
	"fmt"

	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/spec"
)

// argRegs are the x86-64 system-call argument registers, in ABI order. Slots
// nested deeper than six top-level arguments spill to stack tokens.
var argRegs = []string{"rdi", "rsi", "rdx", "r10", "r8", "r9"}

// regForArg returns the register (or stack-slot) token carrying top-level
// argument i.
func regForArg(i int) string {
	if i < len(argRegs) {
		return argRegs[i]
	}
	return fmt.Sprintf("stk%d", i-len(argRegs))
}

// fillerOps is the pool of opcodes used for straight-line filler code.
var fillerOps = []string{"mov", "add", "sub", "and", "or", "xor", "shl", "shr", "lea", "inc", "dec", "push", "pop"}

// fillerRegs is the pool of scratch registers for filler code.
var fillerRegs = []string{"rax", "rbx", "rcx", "rbp", "r11", "r12", "r13", "r14", "r15"}

// predTokens renders an assembly-like token sequence for a branch block
// testing the given predicate over the given slot of the syscall. The
// sequence walks the slot's access path — argument register, then one memory
// load per nesting level with the real struct offset — and ends with the
// compare/jump pair matching the predicate kind. This mirrors how a real
// handler's disassembly reveals which argument a branch inspects, which is
// exactly the signal the paper's assembly encoder learns.
func predTokens(call *spec.Syscall, p *Predicate) []string {
	var toks []string
	switch p.Kind {
	case PredCounterGT, PredCounterEQ:
		toks = append(toks, "mov", "rax", "gs", "sym_"+p.Key)
		toks = append(toks, "cmp", "rax", immToken(p.Value))
		if p.Kind == PredCounterGT {
			toks = append(toks, "ja")
		} else {
			toks = append(toks, "je")
		}
		return toks
	}
	slots := call.Slots()
	var path []int
	if p.Slot >= 0 && p.Slot < len(slots) {
		path = slots[p.Slot].Path
	}
	if len(path) == 0 {
		path = []int{0}
	}
	toks = append(toks, "mov", "rax", regForArg(path[0]))
	for _, idx := range path[1:] {
		toks = append(toks, "mov", "rax", "qword", fmt.Sprintf("off_0x%x", idx*8))
	}
	switch p.Kind {
	case PredSlotEQ:
		toks = append(toks, "cmp", "rax", immToken(p.Value), "je")
	case PredSlotNEQ:
		toks = append(toks, "cmp", "rax", immToken(p.Value), "jne")
	case PredSlotLT:
		toks = append(toks, "cmp", "rax", immToken(p.Value), "jb")
	case PredSlotGT:
		toks = append(toks, "cmp", "rax", immToken(p.Value), "ja")
	case PredSlotMaskSet:
		toks = append(toks, "test", "rax", immToken(p.Mask), "jnz")
	case PredSlotMaskClear:
		toks = append(toks, "test", "rax", immToken(p.Mask), "jz")
	case PredSlotLenGT:
		toks = append(toks, "mov", "rcx", "qword", "off_len", "cmp", "rcx", immToken(p.Value), "ja")
	case PredSlotLenLT:
		toks = append(toks, "mov", "rcx", "qword", "off_len", "cmp", "rcx", immToken(p.Value), "jb")
	case PredSlotNonNull:
		toks = append(toks, "test", "rax", "rax", "jnz")
	case PredResourceValid:
		toks = append(toks, "call", "sym_fget", "test", "rax", "rax", "jnz")
	}
	return toks
}

// immToken buckets an immediate operand into a bounded vocabulary: exact
// tokens for small values, coarse magnitude buckets for large ones. Real
// immediates are unbounded; bucketing keeps the encoder vocabulary closed.
func immToken(v uint64) string {
	switch {
	case v < 64:
		return fmt.Sprintf("imm_%d", v)
	case v < 256:
		return "imm_u8"
	case v < 1<<16:
		return "imm_u16"
	case v < 1<<32:
		return "imm_u32"
	default:
		return "imm_u64"
	}
}

// SlotTokenTable returns the salient access-path tokens of every argument
// slot of the registry's syscalls, indexed by spec.Syscall.ID and then slot
// index: the ABI register carrying the slot's top-level argument and the
// struct offset of each nesting level. These are exactly the tokens a branch
// block inspecting the slot contains, so a model embedding both shares
// vocabulary between user-space arguments and kernel disassembly. The table
// is built once per registry; its slices are shared and must not be
// modified.
func SlotTokenTable(target *spec.Registry) [][][]string {
	table := make([][][]string, len(target.Calls))
	for _, call := range target.Calls {
		slots := call.Slots()
		row := make([][]string, len(slots))
		for si, slot := range slots {
			toks := make([]string, 0, len(slot.Path))
			toks = append(toks, regForArg(slot.Path[0]))
			for _, idx := range slot.Path[1:] {
				toks = append(toks, fmt.Sprintf("off_0x%x", idx*8))
			}
			row[si] = toks
		}
		table[call.ID] = row
	}
	return table
}

// bodyTokens renders deterministic filler code for a straight-line block.
func bodyTokens(r *rng.Rand, subsystem string) []string {
	n := 2 + r.Intn(5)
	toks := make([]string, 0, n*3+1)
	toks = append(toks, "sub_"+subsystem)
	for i := 0; i < n; i++ {
		toks = append(toks,
			fillerOps[r.Intn(len(fillerOps))],
			fillerRegs[r.Intn(len(fillerRegs))],
			fillerRegs[r.Intn(len(fillerRegs))])
	}
	return toks
}

// returnTokens renders a function epilogue.
func returnTokens() []string { return []string{"mov", "rax", "imm_0", "pop", "rbp", "ret"} }

// crashTokens renders the faulting sequence of a crash block.
func crashTokens(detector string) []string {
	switch detector {
	case "KASAN":
		return []string{"mov", "qword", "off_0x0", "rax", "call", "sym_kasan_report", "ud2"}
	case "BUG()":
		return []string{"call", "sym___bug", "ud2"}
	case "WARN_ON()":
		return []string{"call", "sym___warn", "ret"}
	default:
		return []string{"mov", "rax", "qword", "off_0x0", "ud2"}
	}
}
