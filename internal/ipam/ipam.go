// Package ipam manages a synthetic IPv4 address space.
//
// It provides CIDR prefix parsing, sequential allocation of unique host
// addresses out of registered prefixes, and a binary prefix trie for
// longest-prefix-match lookups. The asnmap package builds its IP→ASN
// registry on top of this, mirroring how the paper resolved captured peer
// addresses to ISPs through Team Cymru's prefix database.
package ipam

import (
	"fmt"
	"net/netip"
)

// Prefix is a parsed IPv4 CIDR block.
type Prefix struct {
	p netip.Prefix
}

// ParsePrefix parses an IPv4 CIDR such as "58.32.0.0/11".
func ParsePrefix(cidr string) (Prefix, error) {
	p, err := netip.ParsePrefix(cidr)
	if err != nil {
		return Prefix{}, fmt.Errorf("parse prefix %q: %w", cidr, err)
	}
	if !p.Addr().Is4() {
		return Prefix{}, fmt.Errorf("prefix %q: only IPv4 is supported", cidr)
	}
	return Prefix{p: p.Masked()}, nil
}

// MustParsePrefix is ParsePrefix for static tables; it panics on error.
func MustParsePrefix(cidr string) Prefix {
	p, err := ParsePrefix(cidr)
	if err != nil {
		panic(err)
	}
	return p
}

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(addr netip.Addr) bool { return p.p.Contains(addr) }

// Bits returns the prefix length.
func (p Prefix) Bits() int { return p.p.Bits() }

// Addr returns the network address of the prefix.
func (p Prefix) Addr() netip.Addr { return p.p.Addr() }

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 { return 1 << (32 - uint(p.p.Bits())) }

// String returns the CIDR form.
func (p Prefix) String() string { return p.p.String() }

// Split divides the prefix into its two /bits+1 halves. ok is false when the
// prefix is a single host (/32) and cannot be split.
func (p Prefix) Split() (lo, hi Prefix, ok bool) {
	bits := p.p.Bits()
	if bits >= 32 {
		return Prefix{}, Prefix{}, false
	}
	base := addrToU32(p.p.Addr())
	half := uint32(1) << (31 - uint(bits))
	lo = Prefix{p: netip.PrefixFrom(u32ToAddr(base), bits+1).Masked()}
	hi = Prefix{p: netip.PrefixFrom(u32ToAddr(base+half), bits+1).Masked()}
	return lo, hi, true
}

// CarveTail splits a /bits block off the high end of the prefixes, returning
// the remaining main prefixes (covering every address outside the tail) and
// the tail block itself. The main list partitions the original space exactly:
// no overlap, nothing lost. It is used to reserve a small infrastructure
// block inside a category's address range without giving up the rest of the
// final prefix. ok is false when no prefix is large enough to carve from.
func CarveTail(prefixes []Prefix, bits int) (main []Prefix, tail Prefix, ok bool) {
	if len(prefixes) == 0 {
		return nil, Prefix{}, false
	}
	last := prefixes[len(prefixes)-1]
	if last.Bits() > bits {
		return nil, Prefix{}, false
	}
	main = append(main, prefixes[:len(prefixes)-1]...)
	// Peel front halves off the last prefix until the back half is /bits.
	cur := last
	for cur.Bits() < bits {
		lo, hi, _ := cur.Split()
		main = append(main, lo)
		cur = hi
	}
	return main, cur, true
}

// SplitEvenly partitions the prefixes into k groups of roughly equal address
// count. Prefixes are recursively halved (largest first, ties broken by
// lowest address) until at least k blocks exist, then assigned largest-first
// to the currently smallest group. The result is deterministic for a given
// input, every group is non-empty, and the groups exactly cover the input
// space. k must be ≥ 1 and the prefixes must be splittable far enough.
func SplitEvenly(prefixes []Prefix, k int) [][]Prefix {
	if k < 1 {
		panic("ipam: SplitEvenly requires k >= 1")
	}
	blocks := make([]Prefix, len(prefixes))
	copy(blocks, prefixes)
	sortBlocks := func() {
		// Largest first; among equals, lowest network address first.
		for i := 1; i < len(blocks); i++ {
			for j := i; j > 0; j-- {
				a, b := blocks[j-1], blocks[j]
				if a.Size() > b.Size() || (a.Size() == b.Size() && addrToU32(a.Addr()) <= addrToU32(b.Addr())) {
					break
				}
				blocks[j-1], blocks[j] = b, a
			}
		}
	}
	var total uint64
	for _, b := range blocks {
		total += b.Size()
	}
	// Halve the largest block until there are at least k blocks and no single
	// block exceeds an even 1/k share — greedy assignment then keeps the
	// largest group within ~2x of the smallest.
	sortBlocks()
	for len(blocks) < k || blocks[0].Size() > total/uint64(k) {
		lo, hi, ok := blocks[0].Split()
		if !ok {
			panic("ipam: SplitEvenly cannot split a /32 further")
		}
		blocks = append(blocks[:0], append([]Prefix{lo, hi}, blocks[1:]...)...)
		sortBlocks()
	}
	groups := make([][]Prefix, k)
	sizes := make([]uint64, k)
	for _, b := range blocks {
		min := 0
		for i := 1; i < k; i++ {
			if sizes[i] < sizes[min] {
				min = i
			}
		}
		groups[min] = append(groups[min], b)
		sizes[min] += b.Size()
	}
	return groups
}

// addrToU32 converts an IPv4 address to its numeric value.
func addrToU32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// u32ToAddr converts a numeric value back to an IPv4 address.
func u32ToAddr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// Pool allocates unique host addresses sequentially from a set of prefixes.
// Network (.0) and broadcast-style terminal addresses are skipped for /24 and
// shorter prefixes to keep addresses realistic.
type Pool struct {
	prefixes []Prefix
	cursor   int    // index into prefixes
	next     uint32 // next candidate offset within prefixes[cursor]
}

// NewPool creates a pool drawing from the given prefixes in order.
func NewPool(prefixes ...Prefix) *Pool {
	cp := make([]Prefix, len(prefixes))
	copy(cp, prefixes)
	return &Pool{prefixes: cp, next: 1} // skip the network address
}

// ErrExhausted is returned when a pool has no addresses left.
var ErrExhausted = fmt.Errorf("ipam: address pool exhausted")

// Alloc returns the next unallocated address from the pool.
func (p *Pool) Alloc() (netip.Addr, error) {
	for p.cursor < len(p.prefixes) {
		pre := p.prefixes[p.cursor]
		size := pre.Size()
		// Reserve the first (network) and last (broadcast) offsets.
		if uint64(p.next) < size-1 {
			addr := u32ToAddr(addrToU32(pre.Addr()) + p.next)
			p.next++
			return addr, nil
		}
		p.cursor++
		p.next = 1
	}
	return netip.Addr{}, ErrExhausted
}

// trieNode is a node in the binary prefix trie.
type trieNode struct {
	children [2]*trieNode
	hasValue bool
	value    int
}

// Trie maps IPv4 prefixes to integer labels with longest-prefix-match
// semantics, like a routing table or an IP→ASN database.
type Trie struct {
	root trieNode
}

// NewTrie returns an empty trie.
func NewTrie() *Trie { return &Trie{} }

// Insert associates label with the prefix, replacing any existing label on
// the exact same prefix.
func (t *Trie) Insert(p Prefix, label int) {
	v := addrToU32(p.Addr())
	node := &t.root
	for i := 0; i < p.Bits(); i++ {
		bit := (v >> (31 - uint(i))) & 1
		if node.children[bit] == nil {
			node.children[bit] = &trieNode{}
		}
		node = node.children[bit]
	}
	node.hasValue = true
	node.value = label
}

// Lookup returns the label of the longest prefix containing addr.
func (t *Trie) Lookup(addr netip.Addr) (label int, ok bool) {
	if !addr.Is4() {
		return 0, false
	}
	v := addrToU32(addr)
	node := &t.root
	if node.hasValue {
		label, ok = node.value, true
	}
	for i := 0; i < 32 && node != nil; i++ {
		bit := (v >> (31 - uint(i))) & 1
		node = node.children[bit]
		if node != nil && node.hasValue {
			label, ok = node.value, true
		}
	}
	return label, ok
}
