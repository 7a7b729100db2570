package compiler

import "fmt"

// Expr is an expression over the loop index.
type Expr interface {
	exprNode()
}

// Ref reads array Name at the loop index plus Offset lanes.
type Ref struct {
	Name   string
	Offset int
}

// Lit is an integer literal broadcast across lanes.
type Lit struct {
	Value uint64
}

// Bin applies a binary vector operation to two subexpressions.
type Bin struct {
	Op   OpCode
	X, Y Expr
}

// Un applies a unary vector operation.
type Un struct {
	Op OpCode
	X  Expr
}

// Cond selects lanewise: Mask != 0 ? A : B (vector predication).
type Cond struct {
	Mask, A, B Expr
}

func (Ref) exprNode()  {}
func (Lit) exprNode()  {}
func (Bin) exprNode()  {}
func (Un) exprNode()   {}
func (Cond) exprNode() {}

// OpCode is the source-level operation vocabulary (a subset of the vector
// IR, excluding movement/control internals).
type OpCode uint8

// Source operations.
const (
	OpAdd OpCode = iota
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
	OpXor
	OpNot
	OpShl
	OpShr
	OpLT
	OpGT
	OpEQ
	OpMin
	OpMax
	OpSelect3 // used only via Select helper
)

// Assign is one statement of a loop body:
//
//	Target[i] = Value        (elementwise)
//	Target[block] = Σ Value  (when Reduce is set: per-block lane reduction)
type Assign struct {
	Target string
	Offset int // lane offset on the target (usually 0)
	Value  Expr
	Reduce bool
}

// Stmt is a top-level statement.
type Stmt interface {
	stmtNode()
}

// Loop iterates i over [0, N) lanes, executing Body elementwise.
type Loop struct {
	Name string
	N    int // iteration (lane) count
	Body []Assign
	// ForceScalar marks the loop non-vectorizable for reasons outside
	// the dependence test (complex control flow, aliasing, atomics —
	// §7's auto-vectorization limits). The compiler also proves
	// non-vectorizability itself for loop-carried dependences.
	ForceScalar bool
}

// ScalarWork is an inherently sequential region (bookkeeping, control,
// pointer chasing) costing Cycles controller-core cycles per occurrence.
// CodeUnits is its static size in operation-equivalents for the
// vectorizable-code metric (Table 3 characterizes code, not runtime); when
// zero, it is estimated from Cycles.
type ScalarWork struct {
	Name      string
	Cycles    int64
	CodeUnits int64
}

func (Loop) stmtNode()       {}
func (ScalarWork) stmtNode() {}

// Array declares a data object of Len lanes of Elem bytes. Input arrays
// carry initial Data (lane-packed, little-endian); non-input arrays start
// zeroed. Compile aliases Data in its Compiled.Inputs, so Data must not
// change once compiled.
type Array struct {
	Name  string
	Elem  int
	Len   int
	Input bool
	Data  []byte
}

// Source is a complete application.
type Source struct {
	Name   string
	Arrays []*Array
	Stmts  []Stmt
}

// Validate checks declaration consistency.
func (s *Source) Validate() error {
	if len(s.Arrays) == 0 {
		return fmt.Errorf("compiler: %s declares no arrays", s.Name)
	}
	elem := s.Arrays[0].Elem
	seen := map[string]bool{}
	for _, a := range s.Arrays {
		if a.Name == "" || a.Len <= 0 {
			return fmt.Errorf("compiler: array %q has invalid shape", a.Name)
		}
		if a.Elem != elem {
			return fmt.Errorf("compiler: mixed element sizes (%d vs %d); quantize first (§5.4)", a.Elem, elem)
		}
		if seen[a.Name] {
			return fmt.Errorf("compiler: duplicate array %q", a.Name)
		}
		seen[a.Name] = true
		if a.Input && a.Data != nil && len(a.Data) != a.Len*a.Elem {
			return fmt.Errorf("compiler: array %q data is %d bytes, want %d", a.Name, len(a.Data), a.Len*a.Elem)
		}
	}
	var check func(e Expr) error
	check = func(e Expr) error {
		switch v := e.(type) {
		case Ref:
			if !seen[v.Name] {
				return fmt.Errorf("compiler: reference to undeclared array %q", v.Name)
			}
		case Bin:
			if err := check(v.X); err != nil {
				return err
			}
			return check(v.Y)
		case Un:
			return check(v.X)
		case Cond:
			if err := check(v.Mask); err != nil {
				return err
			}
			if err := check(v.A); err != nil {
				return err
			}
			return check(v.B)
		}
		return nil
	}
	for _, st := range s.Stmts {
		l, ok := st.(Loop)
		if !ok {
			continue
		}
		if l.N <= 0 {
			return fmt.Errorf("compiler: loop %q has %d iterations", l.Name, l.N)
		}
		for _, a := range l.Body {
			if !seen[a.Target] {
				return fmt.Errorf("compiler: loop %q assigns undeclared array %q", l.Name, a.Target)
			}
			if err := check(a.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// Elem reports the shared element size of the source's arrays.
func (s *Source) Elem() int { return s.Arrays[0].Elem }

// array looks up a declared array.
func (s *Source) array(name string) *Array {
	for _, a := range s.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RefsOf returns every array reference in an expression, in evaluation
// order. The cluster planner uses it to classify loops by the arrays they
// touch.
func RefsOf(e Expr) []Ref {
	var out []Ref
	refsIn(e, &out)
	return out
}

// refsIn collects every array reference in an expression.
func refsIn(e Expr, out *[]Ref) {
	switch v := e.(type) {
	case Ref:
		*out = append(*out, v)
	case Bin:
		refsIn(v.X, out)
		refsIn(v.Y, out)
	case Un:
		refsIn(v.X, out)
	case Cond:
		refsIn(v.Mask, out)
		refsIn(v.A, out)
		refsIn(v.B, out)
	}
}

// loopCarried reports whether the loop has a lane-carried dependence: some
// assignment's target array is read at a different lane offset within the
// same loop, making in-order lane execution semantically required.
func loopCarried(l Loop) bool {
	writes := map[string]int{}
	for _, a := range l.Body {
		writes[a.Target] = a.Offset
	}
	for _, a := range l.Body {
		var refs []Ref
		refsIn(a.Value, &refs)
		for _, r := range refs {
			if w, ok := writes[r.Name]; ok && r.Offset != w {
				return true
			}
		}
		if a.Reduce {
			// Reductions vectorize via the reduce instruction.
			continue
		}
	}
	return false
}

// opsIn counts operation nodes in an expression (work estimation).
func opsIn(e Expr) int {
	switch v := e.(type) {
	case Bin:
		return 1 + opsIn(v.X) + opsIn(v.Y)
	case Un:
		return 1 + opsIn(v.X)
	case Cond:
		return 1 + opsIn(v.Mask) + opsIn(v.A) + opsIn(v.B)
	default:
		return 0
	}
}
