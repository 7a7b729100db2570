package isa

import "testing"

func TestEveryOpHasNameClassBandArity(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if op.String() == "" {
			t.Errorf("op %d has no name", op)
		}
		_ = op.Class() // panics on gap
		_ = op.Band()
		if a := op.Arity(); a < 0 || a > 3 {
			t.Errorf("%v arity %d out of range", op, a)
		}
	}
}

func TestClassAndBandAssignments(t *testing.T) {
	if OpAnd.Class() != ClassBitwise || OpAnd.Band() != LatencyLow {
		t.Error("AND should be low-latency bitwise")
	}
	if OpAdd.Class() != ClassArithmetic || OpAdd.Band() != LatencyMedium {
		t.Error("ADD should be medium-latency arithmetic")
	}
	if OpMul.Band() != LatencyHigh {
		t.Error("MUL should be high-latency (Table 3)")
	}
	if OpLT.Class() != ClassPredication {
		t.Error("LT should be predication")
	}
	if OpScalar.Class() != ClassControl {
		t.Error("scalar regions are control class")
	}
}

func TestCapabilityMatrix(t *testing.T) {
	// ISP runs everything.
	for op := Op(0); op < numOps; op++ {
		if !Supports(ResISP, op) {
			t.Errorf("ISP must support %v", op)
		}
	}
	// PuD-SSD supports its published compute set plus in-array data
	// movement (broadcast/shuffle as RowClone/LISA copies, shifts as
	// bit-serial row renames); notably not division, reductions, or
	// scalar control.
	for _, op := range []Op{OpDiv, OpReduceAdd, OpScalar} {
		if Supports(ResPuD, op) {
			t.Errorf("PuD-SSD must not support %v", op)
		}
	}
	pudCount := 0
	for op := Op(0); op < numOps; op++ {
		if Supports(ResPuD, op) {
			pudCount++
		}
	}
	if pudCount != 20 { // 16 published ops + 4 in-array movement forms
		t.Errorf("PuD supports %d ops, want 20", pudCount)
	}
	// IFP: six bitwise + add + mul + shifts; no sub/div/predication.
	ifpCount := 0
	for op := Op(0); op < numOps; op++ {
		if Supports(ResIFP, op) {
			ifpCount++
		}
	}
	if ifpCount != 10 {
		t.Errorf("IFP supports %d ops, want 10", ifpCount)
	}
	for _, op := range []Op{OpSub, OpDiv, OpLT, OpSelect, OpCopy, OpScalar} {
		if Supports(ResIFP, op) {
			t.Errorf("IFP must not support %v", op)
		}
	}
}

func TestNativeMnemonics(t *testing.T) {
	cases := []struct {
		r    Resource
		op   Op
		want string
	}{
		{ResISP, OpAdd, "mve.vadd"},
		{ResISP, OpScalar, "arm.branchy"},
		{ResPuD, OpMul, "bbop_mul"},
		{ResIFP, OpAnd, "mws_and"},
		{ResIFP, OpMul, "shift_and_add_mul"},
		{ResIFP, OpShl, "latch_shift_shl"},
	}
	for _, c := range cases {
		got, err := Native(c.r, c.op)
		if err != nil || got != c.want {
			t.Errorf("Native(%v,%v) = %q,%v want %q", c.r, c.op, got, err, c.want)
		}
	}
	if _, err := Native(ResIFP, OpDiv); err == nil {
		t.Error("unsupported translation should error")
	}
}

func TestTranslationTable(t *testing.T) {
	tab := BuildTranslationTable()
	// Every supported pair is present and matches Native.
	for _, r := range AllResources {
		for op := Op(0); op < numOps; op++ {
			n, ok := tab.Lookup(r, op)
			if Supports(r, op) != ok {
				t.Fatalf("table/Supports disagree for %v/%v", r, op)
			}
			if ok {
				want, _ := Native(r, op)
				if n != want {
					t.Fatalf("table entry %v/%v = %q, want %q", r, op, n, want)
				}
			}
		}
	}
	// §4.5: the table costs ~1.5 KiB; our subset must stay within that.
	if tab.SizeBytes() <= 0 || tab.SizeBytes() > 1536 {
		t.Errorf("translation table is %d bytes, want (0, 1536]", tab.SizeBytes())
	}
}

func validProgram() *Program {
	p := &Program{
		Name:  "t",
		Pages: 4,
		Insts: []Inst{
			{ID: 0, Op: OpBroadcast, Dst: 0, Imm: 7, UseImm: true, Elem: 1, Lanes: 64},
			{ID: 1, Op: OpAdd, Dst: 1, Srcs: []PageID{0, 0}, Elem: 1, Lanes: 64},
			{ID: 2, Op: OpMul, Dst: 2, Srcs: []PageID{1, 0}, Elem: 1, Lanes: 64},
			{ID: 3, Op: OpScalar, Dst: NoPage, ScalarCycles: 100},
		},
	}
	return p
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	p := validProgram()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Program)
	}{
		{"bad id", func(p *Program) { p.Insts[1].ID = 5 }},
		{"bad elem", func(p *Program) { p.Insts[1].Elem = 3 }},
		{"no lanes", func(p *Program) { p.Insts[1].Lanes = 0 }},
		{"wrong arity", func(p *Program) { p.Insts[1].Srcs = p.Insts[1].Srcs[:1] }},
		{"page out of range", func(p *Program) { p.Insts[1].Srcs[0] = 99 }},
		{"dst out of range", func(p *Program) { p.Insts[1].Dst = 99 }},
		{"scalar without cycles", func(p *Program) { p.Insts[3].ScalarCycles = 0 }},
		{"missing dst", func(p *Program) { p.Insts[1].Dst = NoPage }},
	}
	for _, m := range mutations {
		p := validProgram()
		m.mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted broken program", m.name)
		}
	}
}

func TestVectorBytes(t *testing.T) {
	in := Inst{Lanes: 4096, Elem: 4}
	if in.VectorBytes() != 16384 {
		t.Fatalf("VectorBytes = %d, want 16384", in.VectorBytes())
	}
}
