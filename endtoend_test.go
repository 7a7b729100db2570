package conduit_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"testing/quick"

	conduit "conduit"
	"conduit/internal/compiler"
	"conduit/internal/sim"
	"conduit/internal/workloads"
)

// verifyDeviceAgainstInterpreter runs src on the simulated SSD under the
// given policy and compares every declared array against the compiler's
// scalar reference interpreter, bit for bit.
func verifyDeviceAgainstInterpreter(t *testing.T, src *conduit.Source, policy string) {
	t.Helper()
	cfg := conduit.DefaultConfig()
	compiled, err := conduit.Compile(src, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := compiler.Interpret(src, cfg.SSD.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Payload readback requires the functional reference system; the
	// timing-only fast path has no data plane to verify against.
	sys := conduit.NewReferenceSystem(cfg)
	res, err := sys.RunCompiled(compiled, policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Device == nil {
		t.Fatal("in-SSD run must expose the device")
	}
	ps := cfg.SSD.PageSize
	for _, arr := range src.Arrays {
		pages := compiled.ArrayPages(arr.Name)
		for i, p := range pages {
			got, err := res.Device.PageBytes(p)
			if err != nil {
				t.Fatalf("%s page %d: %v", arr.Name, i, err)
			}
			if !bytes.Equal(got, want[arr.Name][i*ps:(i+1)*ps]) {
				t.Fatalf("%s page %d differs from scalar reference under %s", arr.Name, i, policy)
			}
		}
	}
}

// TestWorkloadsEndToEndOnDevice is the flagship correctness test: every
// evaluated workload, compiled by the auto-vectorizer, deployed over the
// NVMe path, executed by the runtime offloader across all three SSD
// computation resources — must be bit-identical to scalar execution of the
// original loops.
func TestWorkloadsEndToEndOnDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("full end-to-end sweep")
	}
	for _, w := range workloads.All(1) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			verifyDeviceAgainstInterpreter(t, w.Source, "Conduit")
		})
	}
}

// TestReferenceRunsLeaveInputsUntouched: an input page's bytes are
// generated on demand by its array's filler, and an explicit dataset
// (compiler.Bytes) is read in place, so no run may change what a filler
// generates or write through the caller's slice. On the functional
// reference system, the one that moves real bytes, each of the six
// workloads and one explicit dataset (updated in place by its own loop)
// is deployed and run under every policy (CPU, GPU, the in-SSD policies,
// Ideal); afterwards every materialised input page and the explicit
// dataset must hash as before.
func TestReferenceRunsLeaveInputsUntouched(t *testing.T) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewReferenceSystem(cfg)
	n := 3*cfg.SSD.PageSize + 100
	explicit := make([]byte, n)
	sim.NewRNG(7).Bytes(explicit)
	srcs := []*conduit.Source{{
		Name: "explicit",
		Arrays: []*conduit.Array{
			{Name: "a", Elem: 1, Len: n, Input: true, Fill: conduit.Bytes(explicit)},
			{Name: "out", Elem: 1, Len: n},
		},
		Stmts: []conduit.Stmt{conduit.Loop{Name: "update", N: n, Body: []conduit.Assign{
			{Target: "a", Value: conduit.Bin{Op: conduit.OpAdd,
				X: conduit.Bin{Op: conduit.OpMul, X: conduit.Ref{Name: "a"}, Y: conduit.Lit{Value: 3}}, Y: conduit.Lit{Value: 1}}},
			{Target: "out", Value: conduit.Bin{Op: conduit.OpXor, X: conduit.Ref{Name: "a"}, Y: conduit.Lit{Value: 0x5A}}},
		}}},
	}}
	for _, w := range workloads.All(1) {
		srcs = append(srcs, w.Source)
	}
	page := make([]byte, cfg.SSD.PageSize)
	for _, src := range srcs {
		c, err := conduit.Compile(src, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		digest := func() [sha256.Size]byte {
			h := sha256.New()
			h.Write(explicit)
			for _, p := range c.Prog.InputPages {
				c.InputPage(p, page)
				h.Write(page)
			}
			return [sha256.Size]byte(h.Sum(nil))
		}
		before := digest()
		dep, err := sys.Deploy(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range conduit.Policies() {
			if _, err := dep.Run(p); err != nil {
				t.Fatalf("%s under %s: %v", src.Name, p, err)
			}
		}
		if digest() != before {
			t.Errorf("%s: a reference run changed an input page or wrote through the explicit dataset", src.Name)
		}
	}
}

func TestWorkloadsEndToEndUnderPriorPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("full end-to-end sweep")
	}
	// The prior policies must be just as correct — they only differ in
	// where they run things.
	for _, policy := range []string{"DM-Offloading", "BW-Offloading", "Ares-Flash"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			verifyDeviceAgainstInterpreter(t, workloads.AES(1), policy)
		})
	}
}

// TestRandomProgramEquivalenceProperty feeds randomly generated loop
// programs through the whole stack (vectorizer, placement, offloader,
// substrates) and checks bit-equivalence with the interpreter.
func TestRandomProgramEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	ops := []compiler.OpCode{compiler.OpAdd, compiler.OpSub, compiler.OpMul,
		compiler.OpAnd, compiler.OpOr, compiler.OpXor, compiler.OpMin,
		compiler.OpMax, compiler.OpLT, compiler.OpShl, compiler.OpShr}
	policies := []string{"Conduit", "DM-Offloading", "PuD-SSD", "Ares-Flash"}

	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		// 8-, 16- or 32-bit lanes: the evaluated workloads are all 8-bit,
		// so this is what takes the wider kernels through ISP, PuD-SSD and
		// in-flash execution.
		elem := 1 << r.Intn(3)
		lanes := (16 << 10) / elem // one page
		n := (r.Intn(3) + 1) * lanes

		arrays := []*conduit.Array{
			{Name: "a", Elem: elem, Len: n, Input: true, Fill: conduit.Bytes(randData(r, n*elem))},
			{Name: "b", Elem: elem, Len: n, Input: true, Fill: conduit.Bytes(randData(r, n*elem))},
			{Name: "c", Elem: elem, Len: n},
			{Name: "d", Elem: elem, Len: n},
		}
		names := []string{"a", "b", "c", "d"}
		randRef := func() conduit.Expr {
			return conduit.Ref{Name: names[r.Intn(len(names))], Offset: r.Intn(5) - 2}
		}
		randExpr := func(depth int) conduit.Expr {
			if depth == 0 || r.Intn(3) == 0 {
				if r.Intn(4) == 0 {
					return conduit.Lit{Value: r.Uint64() >> (64 - 8*elem)}
				}
				return randRef()
			}
			op := ops[r.Intn(len(ops))]
			var y conduit.Expr
			if op == compiler.OpShl || op == compiler.OpShr {
				y = conduit.Lit{Value: uint64(r.Intn(8*elem - 1))}
			} else {
				y = randRef()
			}
			return conduit.Bin{Op: op, X: randRef(), Y: y}
		}
		var stmts []conduit.Stmt
		for l := 0; l < r.Intn(3)+1; l++ {
			var body []conduit.Assign
			for a := 0; a < r.Intn(2)+1; a++ {
				body = append(body, conduit.Assign{
					Target: names[2+r.Intn(2)], // write only c/d: avoids recurrences
					Value:  randExpr(2),
				})
			}
			stmts = append(stmts, conduit.Loop{Name: fmt.Sprintf("l%d", l), N: n, Body: body})
		}
		src := &conduit.Source{Name: "prop", Arrays: arrays, Stmts: stmts}
		verifyDeviceAgainstInterpreter(t, src, policies[r.Intn(len(policies))])
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func randData(r *sim.RNG, n int) []byte {
	b := make([]byte, n)
	r.Bytes(b)
	return b
}
