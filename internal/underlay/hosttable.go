package underlay

// hostTable maps packed IPv4 addresses (hostKey) to attached hosts through a
// radix table with one 256-way level per address octet. The lookup sits on
// every datagram send and on every attach and detach of a million-member
// population, where a hash map's probes are cache misses and its buckets are
// several times the size of the pointers they hold; here the upper levels
// stay cached and only the /24 leaf is cold. Addresses come from sequential
// ipam pools, so leaves fill densely; a node is released when its last entry
// goes, so churn that walks through the address space leaves no empty nodes
// behind. An empty table is 2 KB and a lone host costs 6 KB more, which is
// what keeps small worlds with many domains small.
type hostTable struct {
	n    int // attached hosts
	root radixNode[radixNode[radixNode[radixNode[Host]]]]
}

// radixNode is one level of the table: 256 children and how many are set.
type radixNode[T any] struct {
	live int
	kids [256]*T
}

// child returns the node's i-th child, creating it if absent.
func (n *radixNode[T]) child(i byte) *T {
	c := n.kids[i]
	if c == nil {
		c = new(T)
		n.kids[i] = c
		n.live++
	}
	return c
}

// drop clears the i-th child, which must be set, and reports whether the
// node is now empty.
func (n *radixNode[T]) drop(i byte) bool {
	n.kids[i] = nil
	n.live--
	return n.live == 0
}

// get returns the host attached at key, or nil.
func (t *hostTable) get(key uint32) *Host {
	if a := t.root.kids[byte(key>>24)]; a != nil {
		if b := a.kids[byte(key>>16)]; b != nil {
			if leaf := b.kids[byte(key>>8)]; leaf != nil {
				return leaf.kids[byte(key)]
			}
		}
	}
	return nil
}

// put stores h at key, which must be vacant.
func (t *hostTable) put(key uint32, h *Host) {
	leaf := t.root.child(byte(key >> 24)).child(byte(key >> 16)).child(byte(key >> 8))
	leaf.kids[byte(key)] = h
	leaf.live++
	t.n++
}

// remove vacates key and returns the host that was there, or nil. It walks
// the levels once, keeping each node for the release cascade.
func (t *hostTable) remove(key uint32) *Host {
	a := t.root.kids[byte(key>>24)]
	if a == nil {
		return nil
	}
	b := a.kids[byte(key>>16)]
	if b == nil {
		return nil
	}
	leaf := b.kids[byte(key>>8)]
	if leaf == nil || leaf.kids[byte(key)] == nil {
		return nil
	}
	h := leaf.kids[byte(key)]
	if leaf.drop(byte(key)) && b.drop(byte(key>>8)) && a.drop(byte(key>>16)) {
		t.root.drop(byte(key >> 24))
	}
	t.n--
	return h
}
