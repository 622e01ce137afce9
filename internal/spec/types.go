// Package spec implements a Syzlang-like system-call specification language.
//
// A specification describes, for each system call variant, the shape of its
// arguments: plain integers with ranges, flag bitmasks, enumerations,
// buffers, length fields, pointers, nested structs, strings, and kernel
// resources (handles such as file descriptors that one call produces and
// later calls consume). Specifications are written in a small text language
// (see Parse) closely modeled on Syzkaller's syscall description syntax, and
// compiled into a Registry that the program generator, the mutation engine,
// and the kernel simulator all share.
package spec

import "fmt"

// TypeKind identifies the shape of an argument type.
type TypeKind int

// The supported argument type kinds.
const (
	KindInt      TypeKind = iota // integer constrained to [Min, Max]
	KindFlags                    // bitwise OR of a named flag set
	KindEnum                     // exactly one of a named constant set
	KindLen                      // length (in bytes) of the sibling field named LenTarget
	KindBuffer                   // byte buffer of at most MaxSize bytes
	KindString                   // NUL-free string (e.g. a path)
	KindPtr                      // pointer to Elem (may be null)
	KindStruct                   // record of named Fields
	KindResource                 // a kernel resource handle of kind Resource
	KindProc                     // per-process id value (pid-like small integer)
)

// String returns the kind's syzlang keyword.
func (k TypeKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFlags:
		return "flags"
	case KindEnum:
		return "enum"
	case KindLen:
		return "len"
	case KindBuffer:
		return "buffer"
	case KindString:
		return "string"
	case KindPtr:
		return "ptr"
	case KindStruct:
		return "struct"
	case KindResource:
		return "resource"
	case KindProc:
		return "proc"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Type describes one argument type. Types are immutable after registry
// construction and may be shared between syscalls.
type Type struct {
	Kind TypeKind
	Name string // type name for named types (flag sets, enums, structs)

	// KindInt: inclusive range.
	Min, Max uint64

	// KindFlags, KindEnum: the legal values and their source names.
	Values     []uint64
	ValueNames []string

	// KindLen: name of the sibling field whose byte length this encodes.
	LenTarget string

	// KindBuffer: maximum size in bytes.
	MaxSize int

	// KindPtr: pointee.
	Elem *Type

	// KindStruct: ordered fields.
	Fields []Field

	// KindResource: resource kind name (e.g. "fd", "sock").
	Resource string
}

// Field is a named member of a struct or a named syscall parameter.
type Field struct {
	Name string
	Type *Type
}

// IsScalar reports whether values of this type are represented by a single
// integer (and therefore mutated by scalar mutators).
func (t *Type) IsScalar() bool {
	switch t.Kind {
	case KindInt, KindFlags, KindEnum, KindLen, KindResource, KindProc:
		return true
	}
	return false
}

// FlagMask returns the OR of all flag values; zero for non-flag types.
func (t *Type) FlagMask() uint64 {
	if t.Kind != KindFlags {
		return 0
	}
	var m uint64
	for _, v := range t.Values {
		m |= v
	}
	return m
}

// Syscall describes one system-call variant (e.g. "openat" or
// "ioctl$SCSI_SEND"). Variants of the same underlying call share the NR.
type Syscall struct {
	ID        int    // dense index into Registry.Calls
	NR        int    // underlying syscall number (shared across variants)
	Name      string // variant name, e.g. "sendmsg$inet"
	CallName  string // base name before '$', e.g. "sendmsg"
	Subsystem string // kernel subsystem that handles the call
	Args      []Field
	Ret       string // resource kind produced, or "" if none

	slots []Slot // lazily built flattened argument slots
}

// Slot identifies one mutable argument position of a syscall, after
// flattening nested pointers and structs. A "syz" test's mutation surface is
// the union of the slots of its calls; the paper reports >60 slots per test
// on average (§5.1).
type Slot struct {
	Index int    // dense index within the syscall's slot list
	Path  []int  // tree path: arg index, then field/pointee indices
	Name  string // dotted human-readable path, e.g. "msg.iov.len"
	Type  *Type
}

// Slots returns the flattened mutation slots of the syscall, computed once.
func (s *Syscall) Slots() []Slot {
	if s.slots == nil {
		s.slots = flattenSlots(s.Args)
		if len(s.slots) == 0 {
			s.slots = []Slot{} // distinguish "computed, empty" from "not computed"
		}
	}
	return s.slots
}

func flattenSlots(args []Field) []Slot {
	var slots []Slot
	var walk func(t *Type, path []int, name string)
	walk = func(t *Type, path []int, name string) {
		switch t.Kind {
		case KindPtr:
			// The pointer itself is mutable (null it, misalign it), and so
			// is everything behind it.
			slots = append(slots, Slot{Path: append([]int(nil), path...), Name: name, Type: t})
			walk(t.Elem, append(path, 0), name+".*")
		case KindStruct:
			for i, f := range t.Fields {
				walk(f.Type, append(path, i), name+"."+f.Name)
			}
		default:
			slots = append(slots, Slot{Path: append([]int(nil), path...), Name: name, Type: t})
		}
	}
	for i, a := range args {
		walk(a.Type, []int{i}, a.Name)
	}
	for i := range slots {
		slots[i].Index = i
	}
	return slots
}

// Resource describes a kernel resource kind.
type Resource struct {
	Name string
	// InvalidValue is the placeholder used when a program consumes a
	// resource no prior call produced (Syzkaller uses 0xffffffffffffffff).
	InvalidValue uint64
}

// Registry holds a compiled specification: every syscall variant, named
// type, and resource kind.
type Registry struct {
	Calls     []*Syscall
	Resources map[string]*Resource

	byName    map[string]*Syscall
	flagSets  map[string]*Type
	enumSets  map[string]*Type
	structs   map[string]*Type
	producers map[string][]*Syscall // resource kind -> calls producing it
}

// NewRegistry returns an empty registry ready for declarations.
func NewRegistry() *Registry {
	return &Registry{
		Resources: map[string]*Resource{},
		byName:    map[string]*Syscall{},
		flagSets:  map[string]*Type{},
		enumSets:  map[string]*Type{},
		structs:   map[string]*Type{},
		producers: map[string][]*Syscall{},
	}
}

// Lookup returns the syscall with the given variant name, or nil.
func (r *Registry) Lookup(name string) *Syscall { return r.byName[name] }

// FlagSet returns the named flag set type, or nil.
func (r *Registry) FlagSet(name string) *Type { return r.flagSets[name] }

// EnumSet returns the named enum type, or nil.
func (r *Registry) EnumSet(name string) *Type { return r.enumSets[name] }

// Producers returns the syscalls that produce the given resource kind.
func (r *Registry) Producers(kind string) []*Syscall { return r.producers[kind] }

// AddSyscall registers a syscall variant. It assigns the dense ID and
// derives CallName; it returns an error on duplicate names or references to
// undeclared resources.
func (r *Registry) AddSyscall(s *Syscall) error {
	if _, dup := r.byName[s.Name]; dup {
		return fmt.Errorf("spec: duplicate syscall %q", s.Name)
	}
	s.ID = len(r.Calls)
	s.CallName = callName(s.Name)
	if s.Ret != "" {
		if _, ok := r.Resources[s.Ret]; !ok {
			return fmt.Errorf("spec: syscall %q returns undeclared resource %q", s.Name, s.Ret)
		}
		r.producers[s.Ret] = append(r.producers[s.Ret], s)
	}
	if err := r.checkResources(s); err != nil {
		return err
	}
	r.Calls = append(r.Calls, s)
	r.byName[s.Name] = s
	return nil
}

func (r *Registry) checkResources(s *Syscall) error {
	var check func(t *Type) error
	check = func(t *Type) error {
		switch t.Kind {
		case KindResource:
			if _, ok := r.Resources[t.Resource]; !ok {
				return fmt.Errorf("spec: syscall %q consumes undeclared resource %q", s.Name, t.Resource)
			}
		case KindPtr:
			return check(t.Elem)
		case KindStruct:
			for _, f := range t.Fields {
				if err := check(f.Type); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, a := range s.Args {
		if err := check(a.Type); err != nil {
			return err
		}
	}
	return nil
}

// AddResource declares a resource kind.
func (r *Registry) AddResource(name string) error {
	if _, dup := r.Resources[name]; dup {
		return fmt.Errorf("spec: duplicate resource %q", name)
	}
	r.Resources[name] = &Resource{Name: name, InvalidValue: ^uint64(0)}
	return nil
}

// callName strips the '$variant' suffix.
func callName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '$' {
			return name[:i]
		}
	}
	return name
}

// MaxSlots returns the largest slot count over all calls; useful for sizing
// model inputs.
func (r *Registry) MaxSlots() int {
	max := 0
	for _, c := range r.Calls {
		if n := len(c.Slots()); n > max {
			max = n
		}
	}
	return max
}
