package prog

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"github.com/repro/snowplow/internal/spec"
)

// Serialize renders the program in the textual "syz"-like format:
//
//	r0 = open("./file0", 0x42, 0x1ff)
//	read(r0, &b"00ff", 0x2)
//
// Calls producing a resource are prefixed with "rN = " where N is the call's
// index. Pointers render as &inner or nil; structs as {f1, f2, ...}; buffers
// as b"hex"; invalid resources as their placeholder hex value.
func (p *Prog) Serialize() string {
	var b strings.Builder
	for i, c := range p.Calls {
		if c.Meta.Ret != "" {
			fmt.Fprintf(&b, "r%d = ", i)
		}
		b.WriteString(c.Meta.Name)
		b.WriteByte('(')
		for j, a := range c.Args {
			if j > 0 {
				b.WriteString(", ")
			}
			serializeArg(&b, a)
		}
		b.WriteString(")\n")
	}
	return b.String()
}

func serializeArg(b *strings.Builder, a Arg) {
	switch v := a.(type) {
	case *ConstArg:
		fmt.Fprintf(b, "0x%x", v.Val)
	case *StringArg:
		fmt.Fprintf(b, "%q", v.Val)
	case *DataArg:
		fmt.Fprintf(b, "b\"%s\"", hex.EncodeToString(v.Data))
	case *PointerArg:
		if v.Null {
			b.WriteString("nil")
			return
		}
		b.WriteByte('&')
		serializeArg(b, v.Inner)
	case *GroupArg:
		b.WriteByte('{')
		for i, in := range v.Inner {
			if i > 0 {
				b.WriteString(", ")
			}
			serializeArg(b, in)
		}
		b.WriteByte('}')
	case *ResultArg:
		if v.Ref >= 0 {
			fmt.Fprintf(b, "r%d", v.Ref)
		} else {
			fmt.Fprintf(b, "0x%x", v.Val)
		}
	default:
		panic(fmt.Sprintf("prog: serialize unknown arg %T", a))
	}
}

// Parse reconstructs a program from its serialized form, resolving call
// names and argument shapes against target.
func Parse(target *spec.Registry, text string) (*Prog, error) {
	p := &Prog{Target: target}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		call, err := parseCallLine(target, line, len(p.Calls))
		if err != nil {
			return nil, fmt.Errorf("prog: line %d: %w", lineNo+1, err)
		}
		p.Calls = append(p.Calls, call)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("prog: %w", err)
	}
	return p, nil
}

// MustParse is Parse that panics on error; for tests and fixtures.
func MustParse(target *spec.Registry, text string) *Prog {
	p, err := Parse(target, text)
	if err != nil {
		panic(err)
	}
	return p
}

func parseCallLine(target *spec.Registry, line string, callIdx int) (*Call, error) {
	// Optional "rN = " prefix.
	if eq := strings.Index(line, "="); eq > 0 && strings.HasPrefix(strings.TrimSpace(line[:eq]), "r") {
		prefix := strings.TrimSpace(line[:eq])
		n, err := strconv.Atoi(prefix[1:])
		if err != nil {
			return nil, fmt.Errorf("bad result prefix %q", prefix)
		}
		if n != callIdx {
			return nil, fmt.Errorf("result prefix r%d does not match call index %d", n, callIdx)
		}
		line = strings.TrimSpace(line[eq+1:])
	}
	open := strings.IndexByte(line, '(')
	if open < 0 || !strings.HasSuffix(line, ")") {
		return nil, fmt.Errorf("malformed call %q", line)
	}
	name := strings.TrimSpace(line[:open])
	meta := target.Lookup(name)
	if meta == nil {
		return nil, fmt.Errorf("unknown syscall %q", name)
	}
	body := line[open+1 : len(line)-1]
	parts := splitArgs(body)
	if len(parts) != len(meta.Args) {
		return nil, fmt.Errorf("%s: %d args, want %d", name, len(parts), len(meta.Args))
	}
	c := &Call{Meta: meta, Args: make([]Arg, len(parts))}
	for i, part := range parts {
		a, err := parseArg(strings.TrimSpace(part), meta.Args[i].Type)
		if err != nil {
			return nil, fmt.Errorf("%s arg %d: %w", name, i, err)
		}
		c.Args[i] = a
	}
	return c, nil
}

// splitArgs splits at top-level commas, respecting braces and quotes.
func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var parts []string
	depth, start := 0, 0
	inStr := false
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if inStr {
			if ch == '\\' {
				i++
			} else if ch == '"' {
				inStr = false
			}
			continue
		}
		switch ch {
		case '"':
			inStr = true
		case '{', '(', '[':
			depth++
		case '}', ')', ']':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

func parseArg(tok string, t *spec.Type) (Arg, error) {
	switch t.Kind {
	case spec.KindInt, spec.KindFlags, spec.KindEnum, spec.KindLen, spec.KindProc:
		v, err := parseHex(tok)
		if err != nil {
			return nil, err
		}
		return &ConstArg{T: t, Val: v}, nil
	case spec.KindString:
		s, err := strconv.Unquote(tok)
		if err != nil {
			return nil, fmt.Errorf("bad string %q: %w", tok, err)
		}
		return &StringArg{T: t, Val: s}, nil
	case spec.KindBuffer:
		// len >= 3: in `b"` the closing quote would be the opening one.
		if len(tok) < 3 || !strings.HasPrefix(tok, "b\"") || !strings.HasSuffix(tok, "\"") {
			return nil, fmt.Errorf("bad buffer literal %q", tok)
		}
		data, err := hex.DecodeString(tok[2 : len(tok)-1])
		if err != nil {
			return nil, fmt.Errorf("bad buffer hex %q: %w", tok, err)
		}
		return &DataArg{T: t, Data: data}, nil
	case spec.KindPtr:
		if tok == "nil" {
			return &PointerArg{T: t, Null: true}, nil
		}
		if !strings.HasPrefix(tok, "&") {
			return nil, fmt.Errorf("bad pointer literal %q", tok)
		}
		inner, err := parseArg(strings.TrimSpace(tok[1:]), t.Elem)
		if err != nil {
			return nil, err
		}
		return &PointerArg{T: t, Inner: inner}, nil
	case spec.KindStruct:
		if !strings.HasPrefix(tok, "{") || !strings.HasSuffix(tok, "}") {
			return nil, fmt.Errorf("bad struct literal %q", tok)
		}
		parts := splitArgs(tok[1 : len(tok)-1])
		if len(parts) != len(t.Fields) {
			return nil, fmt.Errorf("struct %s: %d fields, want %d", t.Name, len(parts), len(t.Fields))
		}
		ga := &GroupArg{T: t, Inner: make([]Arg, len(parts))}
		for i, part := range parts {
			in, err := parseArg(strings.TrimSpace(part), t.Fields[i].Type)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", t.Fields[i].Name, err)
			}
			ga.Inner[i] = in
		}
		return ga, nil
	case spec.KindResource:
		if strings.HasPrefix(tok, "r") {
			n, err := strconv.Atoi(tok[1:])
			if err != nil {
				return nil, fmt.Errorf("bad resource ref %q", tok)
			}
			return &ResultArg{T: t, Ref: n}, nil
		}
		v, err := parseHex(tok)
		if err != nil {
			return nil, fmt.Errorf("bad resource literal %q: %w", tok, err)
		}
		return &ResultArg{T: t, Ref: -1, Val: v}, nil
	default:
		return nil, fmt.Errorf("cannot parse kind %v", t.Kind)
	}
}

func parseHex(tok string) (uint64, error) {
	if strings.HasPrefix(tok, "0x") {
		return strconv.ParseUint(tok[2:], 16, 64)
	}
	return strconv.ParseUint(tok, 10, 64)
}
