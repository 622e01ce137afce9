package kernel

import "fmt"

// PredKind classifies branch predicates.
type PredKind int

// The predicate kinds. Slot predicates inspect the invoking call's flattened
// argument slots; state predicates inspect persistent kernel state.
const (
	PredSlotEQ        PredKind = iota // slot value == Value
	PredSlotNEQ                       // slot value != Value
	PredSlotLT                        // slot value < Value
	PredSlotGT                        // slot value > Value
	PredSlotMaskSet                   // slot value & Mask == Mask
	PredSlotMaskClear                 // slot value & Mask == 0
	PredSlotLenGT                     // slot byte length > Value (buffers/strings)
	PredSlotLenLT                     // slot byte length < Value
	PredSlotNonNull                   // slot pointer is non-null / slot present
	PredResourceValid                 // slot holds a live resource handle
	PredCounterGT                     // Counters[Key] > Value
	PredCounterEQ                     // Counters[Key] == Value
)

// Predicate is a branch condition.
type Predicate struct {
	Kind  PredKind
	Slot  int    // flattened slot index within the handler's syscall
	Value uint64 // comparison operand
	Mask  uint64 // for mask predicates
	Key   string // for counter predicates
}

// SlotView is the executor's view of one argument slot at call time.
type SlotView struct {
	// Present is false when the slot sits behind a null pointer.
	Present bool
	// Val is the scalar value: the constant for scalar slots, the resolved
	// handle for resources, 1/0 for pointers (non-null/null).
	Val uint64
	// Len is the byte length for buffers and strings (0 otherwise).
	Len int
	// IsResource marks resource slots; Val then holds the handle.
	IsResource bool
}

// Eval evaluates the predicate against the call's slot views and kernel
// state. Predicates over absent slots (behind null pointers) are false,
// matching a kernel that bails out on EFAULT before deeper checks.
func (p *Predicate) Eval(slots []SlotView, st *State) bool {
	slot := func() (SlotView, bool) {
		if p.Slot < 0 || p.Slot >= len(slots) {
			return SlotView{}, false
		}
		v := slots[p.Slot]
		return v, v.Present
	}
	switch p.Kind {
	case PredSlotEQ:
		v, ok := slot()
		return ok && v.Val == p.Value
	case PredSlotNEQ:
		v, ok := slot()
		return ok && v.Val != p.Value
	case PredSlotLT:
		v, ok := slot()
		return ok && v.Val < p.Value
	case PredSlotGT:
		v, ok := slot()
		return ok && v.Val > p.Value
	case PredSlotMaskSet:
		v, ok := slot()
		return ok && v.Val&p.Mask == p.Mask
	case PredSlotMaskClear:
		v, ok := slot()
		return ok && v.Val&p.Mask == 0
	case PredSlotLenGT:
		v, ok := slot()
		return ok && uint64(v.Len) > p.Value
	case PredSlotLenLT:
		v, ok := slot()
		return ok && uint64(v.Len) < p.Value
	case PredSlotNonNull:
		v, ok := slot()
		return ok && v.Val != 0
	case PredResourceValid:
		v, ok := slot()
		return ok && v.IsResource && st.ValidHandle(v.Val, "")
	case PredCounterGT:
		return st.Counters[p.Key] > p.Value
	case PredCounterEQ:
		return st.Counters[p.Key] == p.Value
	default:
		panic(fmt.Sprintf("kernel: unknown predicate kind %d", p.Kind))
	}
}

// String renders the predicate for debugging.
func (p *Predicate) String() string {
	switch p.Kind {
	case PredSlotEQ:
		return fmt.Sprintf("slot%d == %#x", p.Slot, p.Value)
	case PredSlotNEQ:
		return fmt.Sprintf("slot%d != %#x", p.Slot, p.Value)
	case PredSlotLT:
		return fmt.Sprintf("slot%d < %#x", p.Slot, p.Value)
	case PredSlotGT:
		return fmt.Sprintf("slot%d > %#x", p.Slot, p.Value)
	case PredSlotMaskSet:
		return fmt.Sprintf("slot%d & %#x set", p.Slot, p.Mask)
	case PredSlotMaskClear:
		return fmt.Sprintf("slot%d & %#x clear", p.Slot, p.Mask)
	case PredSlotLenGT:
		return fmt.Sprintf("len(slot%d) > %d", p.Slot, p.Value)
	case PredSlotLenLT:
		return fmt.Sprintf("len(slot%d) < %d", p.Slot, p.Value)
	case PredSlotNonNull:
		return fmt.Sprintf("slot%d != NULL", p.Slot)
	case PredResourceValid:
		return fmt.Sprintf("valid(slot%d)", p.Slot)
	case PredCounterGT:
		return fmt.Sprintf("counter[%s] > %d", p.Key, p.Value)
	case PredCounterEQ:
		return fmt.Sprintf("counter[%s] == %d", p.Key, p.Value)
	default:
		return fmt.Sprintf("pred(%d)", int(p.Kind))
	}
}
