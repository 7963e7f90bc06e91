package netaddr

// Trie is a binary (path-uncompressed) radix trie mapping IPv4 prefixes to
// values, supporting longest-prefix match. It backs every simulated FIB
// and the RouteViews-style routable-prefix table used to build hitlists.
//
// The trie is generic over the stored value so the BGP simulator can store
// rich route entries while the hitlist builder stores small ints.
type Trie[V any] struct {
	root *trieNode[V]
	size int
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	val   V
	set   bool
}

// NewTrie returns an empty trie.
func NewTrie[V any]() *Trie[V] {
	return &Trie[V]{root: &trieNode[V]{}}
}

// Len returns the number of stored prefixes.
func (t *Trie[V]) Len() int { return t.size }

func bit(a Addr, i int) int { return int(a>>(31-i)) & 1 }

// Insert stores val at prefix p, replacing any existing value.
func (t *Trie[V]) Insert(p Prefix, val V) {
	p = p.Masked()
	n := t.root
	for i := 0; i < p.Bits; i++ {
		b := bit(p.Addr, i)
		if n.child[b] == nil {
			n.child[b] = &trieNode[V]{}
		}
		n = n.child[b]
	}
	if !n.set {
		t.size++
	}
	n.val = val
	n.set = true
}

// Lookup returns the value of the longest prefix containing a.
func (t *Trie[V]) Lookup(a Addr) (val V, p Prefix, ok bool) {
	n := t.root
	for i := 0; ; i++ {
		if n.set {
			val, p, ok = n.val, Prefix{Addr: a, Bits: i}.Masked(), true
		}
		if i == 32 {
			return
		}
		n = n.child[bit(a, i)]
		if n == nil {
			return
		}
	}
}

// Get returns the value stored exactly at prefix p.
func (t *Trie[V]) Get(p Prefix) (V, bool) {
	p = p.Masked()
	n := t.root
	for i := 0; i < p.Bits; i++ {
		n = n.child[bit(p.Addr, i)]
		if n == nil {
			var zero V
			return zero, false
		}
	}
	return n.val, n.set
}

// Walk visits every stored prefix in trie (address) order. Returning false
// from fn stops the walk.
func (t *Trie[V]) Walk(fn func(p Prefix, val V) bool) {
	t.walk(t.root, 0, 0, fn)
}

func (t *Trie[V]) walk(n *trieNode[V], addr Addr, depth int, fn func(Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.set {
		if !fn(Prefix{Addr: addr, Bits: depth}, n.val) {
			return false
		}
	}
	if depth == 32 {
		return true
	}
	if !t.walk(n.child[0], addr, depth+1, fn) {
		return false
	}
	return t.walk(n.child[1], addr|1<<(31-depth), depth+1, fn)
}
