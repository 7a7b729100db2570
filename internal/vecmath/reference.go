package vecmath

// The lane-serial reference implementation of the kernels — the same
// Op-dispatched surface built on the closure-per-element primitives — is
// test-only and lives in reference_test.go. The one piece the product
// reaches stays here.

// ShuffleGeneric is the reference implementation of Shuffle: the
// element-serial lane rotation the substrates originally inlined,
// including its behavior on negative rotations and aliased buffers.
func ShuffleGeneric(dst, a []byte, elem int, rot int) {
	CheckElem(elem)
	n := len(dst) / elem
	r := rot % n
	for i := 0; i < n; i++ {
		Store(dst, i, elem, Load(a, (i+r)%n, elem))
	}
}
