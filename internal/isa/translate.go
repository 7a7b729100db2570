package isa

import "fmt"

// Resource identifies one of the three SSD computation resources the
// offloader chooses among (§4.3.2).
type Resource uint8

// SSD computation resources.
const (
	ResISP Resource = iota // embedded controller cores (ARM Cortex-R8 + MVE)
	ResPuD                 // processing-using-DRAM in the SSD DRAM
	ResIFP                 // in-flash processing in the NAND chips
	numResources
)

// NumResources is the number of SSD computation resources.
const NumResources = int(numResources)

// AllResources lists the resources in cost-function evaluation order.
var AllResources = [...]Resource{ResISP, ResPuD, ResIFP}

// String names the resource.
func (r Resource) String() string {
	switch r {
	case ResISP:
		return "ISP"
	case ResPuD:
		return "PuD-SSD"
	case ResIFP:
		return "IFP"
	default:
		return fmt.Sprintf("isa.Resource(%d)", uint8(r))
	}
}

// Supports reports whether resource r can execute op natively.
//
// The capability matrix follows §4.3.2 and is read off the operation table:
// ISP executes the full instruction set (~300 ARM/MVE instructions);
// PuD-SSD supports 16 operations (bitwise, arithmetic, predication,
// relational, copy) plus in-array movement; IFP supports six bulk bitwise
// operations via multi-wordline sensing plus addition, multiplication and
// shifting via the page-buffer latches.
func Supports(r Resource, op Op) bool {
	switch {
	case op >= numOps:
		return false
	case r == ResISP:
		return true
	case r == ResPuD:
		return ops[op].pud != bbops{}
	default:
		return r == ResIFP && ops[op].ifp != IFPNone
	}
}

// Native returns the native-ISA mnemonic the instruction transformation
// unit emits for op on resource r (§4.3.2: MVE for ISP, bbop extensions
// from SIMDRAM/MIMDRAM/Proteus for PuD-SSD, MWS primitives from
// Flash-Cosmos and shift_and_add from Ares-Flash for IFP). It returns an
// error when r does not support op.
func Native(r Resource, op Op) (string, error) {
	switch {
	case !Supports(r, op):
		return "", fmt.Errorf("isa: %v does not support %v", r, op)
	case op == OpScalar:
		return "arm.branchy", nil
	case r == ResISP:
		return "mve.v" + op.String(), nil
	case r == ResPuD:
		return "bbop_" + op.String(), nil
	default:
		return ifpPrefix[op.IFP()] + op.String(), nil
	}
}

// TranslationTable is the in-DRAM table the instruction transformation unit
// consults at runtime (§4.5): one four-byte entry per (operation, resource)
// pair that the resource supports.
type TranslationTable struct {
	native [numResources][numOps]string // "" where the resource lacks the op
	n      int
}

// BuildTranslationTable precomputes all supported translations.
func BuildTranslationTable() *TranslationTable {
	t := &TranslationTable{}
	for _, r := range AllResources {
		for op := Op(0); op < numOps; op++ {
			if n, err := Native(r, op); err == nil {
				t.native[r][op] = n
				t.n++
			}
		}
	}
	return t
}

// Lookup returns the native mnemonic for (r, op), mirroring the 300 ns
// table lookup the paper charges for instruction transformation.
func (t *TranslationTable) Lookup(r Resource, op Op) (string, bool) {
	if r >= numResources || op >= numOps {
		return "", false
	}
	n := t.native[r][op]
	return n, n != ""
}

// SizeBytes reports the table's storage overhead in SSD DRAM at four bytes
// per entry (§4.5 reports ≈1.5 KiB for the full ~300-operation ISP set;
// our IR is the workload-covering subset of that set).
func (t *TranslationTable) SizeBytes() int { return 4 * t.n }
