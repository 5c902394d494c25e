package smi

// Collective shapes. A shape gives one rank's parent (-1 at the root) and
// appends its children to kids, for the communicator of size ranks
// starting at base rooted at root. Ranks are global. The support kernel
// runs every collective protocol over the edges of one shape, so a shape
// is all that tells the paper's linear scheme from a tree.

// star is the paper's linear scheme (§4.4): every other member is a child
// of the root, in member order.
func star(base, size, root, self int, kids []int) (int, []int) {
	if self != root {
		return root, kids
	}
	for m := base; m < base+size; m++ {
		if m != root {
			kids = append(kids, m)
		}
	}
	return -1, kids
}

// binomial is the binomial tree — the "tree-based schema for Bcast and
// Reduce" the paper names as the natural extension of its linear support
// kernels — rooted at root by virtually renumbering members so the root
// is 0. In virtual numbering, node v's parent clears v's lowest set bit,
// and its children are v + 2^j for every 2^j below that bit (all powers
// of two below size for the root).
func binomial(base, size, root, self int, kids []int) (int, []int) {
	v := (self - root + size) % size
	global := func(u int) int { return base + (u+root-base)%size }
	parent, limit := -1, size
	if v != 0 {
		parent, limit = global(v&(v-1)), v&-v
	}
	for step := 1; step < limit && v+step < size; step <<= 1 {
		kids = append(kids, global(v+step))
	}
	return parent, kids
}

// treeDepth returns the depth of the binomial tree over size nodes
// (the number of sequential hops from the root to the deepest leaf).
func treeDepth(size int) int {
	d := 0
	for 1<<d < size {
		d++
	}
	return d
}
