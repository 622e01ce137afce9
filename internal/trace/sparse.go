// Sparse serialization of Cover bitmaps for the cluster wire and
// checkpoints: page keys are visited in ascending order and written as
// canonical varint deltas, each page carries one occupancy byte (which of
// its 8 words are non-zero) and one saturation byte (which words are
// all-ones, run-length encoding fully covered words down to a single bit),
// and only the remaining partial words are written as 8 raw bytes. The
// encoding is canonical — one byte form per edge set — so byte equality of
// two encodings implies set equality, which checkpoint resume relies on.

package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrBadSparse is returned (wrapped) by CoverFromSparse for any truncated,
// corrupt, or non-canonical sparse cover encoding.
var ErrBadSparse = errors.New("trace: malformed sparse cover")

// ForEachWordSorted visits every non-zero 64-bit word of the cover bitmap
// in ascending edge order. base is the edge value of the word's bit 0, so
// edge (base | i) is covered iff bit i of word is set.
func (c *Cover) ForEachWordSorted(fn func(base uint64, word uint64)) {
	c.forEachPageSorted(func(key uint64, pg *coverPage) {
		for w, word := range pg {
			if word != 0 {
				fn(key<<pageBits|uint64(w)<<6, word)
			}
		}
	})
}

// AppendSparse appends the canonical sparse encoding of c to dst and
// returns the extended slice: a uvarint page count, then per page in
// ascending key order a uvarint key delta (absolute key for the first
// page), an occupancy byte, a saturation byte, and the partial words.
func (c *Cover) AppendSparse(dst []byte) []byte {
	npages := 0
	for _, pg := range c.pgs {
		for _, w := range pg {
			if w != 0 {
				npages++
				break
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(npages))
	prev := uint64(0)
	first := true
	c.forEachPageSorted(func(key uint64, pg *coverPage) {
		var occ, full byte
		for w, word := range pg {
			if word != 0 {
				occ |= 1 << w
			}
			if word == ^uint64(0) {
				full |= 1 << w
			}
		}
		if occ == 0 {
			return // page exists but holds no edges (recycled); not encoded
		}
		if first {
			dst = binary.AppendUvarint(dst, key)
			first = false
		} else {
			dst = binary.AppendUvarint(dst, key-prev)
		}
		prev = key
		dst = append(dst, occ, full)
		for _, word := range pg {
			if word != 0 && word != ^uint64(0) {
				dst = binary.LittleEndian.AppendUint64(dst, word)
			}
		}
	})
	return dst
}

// sparseUvarint reads one canonical (minimal-length) uvarint from b,
// returning the value and the number of bytes consumed, or an error for
// truncated, overlong, or non-minimal encodings.
func sparseUvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n == 0 {
		return 0, 0, fmt.Errorf("%w: truncated varint", ErrBadSparse)
	}
	if n < 0 {
		return 0, 0, fmt.Errorf("%w: varint overflow", ErrBadSparse)
	}
	if n > 1 && b[n-1] == 0 {
		return 0, 0, fmt.Errorf("%w: non-minimal varint", ErrBadSparse)
	}
	return v, n, nil
}

// CoverFromSparse rebuilds a Cover from its AppendSparse encoding. Any
// deviation from the canonical form — truncation, trailing bytes,
// non-minimal varints, unsorted or duplicate page keys, empty pages, or a
// partial word that should have been run-length encoded — is rejected with
// an error wrapping ErrBadSparse, so decode∘encode reproduces the input
// bytes exactly.
func CoverFromSparse(b []byte) (*Cover, error) {
	npages, off, err := sparseUvarint(b)
	if err != nil {
		return nil, err
	}
	// Each page needs at least 3 more bytes (key delta, occupancy,
	// saturation), so a count beyond that is corrupt, not just large.
	if npages > uint64(len(b)-off)/3 {
		return nil, fmt.Errorf("%w: implausible page count %d", ErrBadSparse, npages)
	}
	c := NewCover()
	var key uint64
	for i := uint64(0); i < npages; i++ {
		delta, n, err := sparseUvarint(b[off:])
		if err != nil {
			return nil, err
		}
		off += n
		if i == 0 {
			key = delta
		} else {
			if delta == 0 {
				return nil, fmt.Errorf("%w: unsorted page keys", ErrBadSparse)
			}
			next := key + delta
			if next < key {
				return nil, fmt.Errorf("%w: page key overflow", ErrBadSparse)
			}
			key = next
		}
		if len(b)-off < 2 {
			return nil, fmt.Errorf("%w: truncated page header", ErrBadSparse)
		}
		occ, full := b[off], b[off+1]
		off += 2
		if occ == 0 {
			return nil, fmt.Errorf("%w: empty page", ErrBadSparse)
		}
		if full&^occ != 0 {
			return nil, fmt.Errorf("%w: saturated bit on empty word", ErrBadSparse)
		}
		pg := c.page(key)
		for w := 0; w < pageWords; w++ {
			bit := byte(1) << w
			switch {
			case full&bit != 0:
				pg[w] = ^uint64(0)
			case occ&bit != 0:
				if len(b)-off < 8 {
					return nil, fmt.Errorf("%w: truncated word", ErrBadSparse)
				}
				word := binary.LittleEndian.Uint64(b[off:])
				off += 8
				if word == 0 || word == ^uint64(0) {
					return nil, fmt.Errorf("%w: non-canonical word", ErrBadSparse)
				}
				pg[w] = word
			}
			c.n += bits.OnesCount64(pg[w])
		}
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSparse, len(b)-off)
	}
	return c, nil
}
