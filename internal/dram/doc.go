// Package dram models the SSD-internal DRAM as a processing-using-DRAM
// (PuD-SSD) substrate: an LPDDR4-1866 module whose banks execute bulk
// bitwise operations by charge sharing (Ambit-style triple-row activation)
// and bit-serial arithmetic built on them (SIMDRAM/MIMDRAM/Proteus — the
// frameworks the paper adopts for PuD-SSD, §4.3.2).
//
// Data lives in page-sized slots striped across the banks. The model is
// functional: slots hold real bytes and every operation computes real
// results. Bit-transposition of operands (required by bit-serial
// execution) is folded into the flash->DRAM DMA path, following Proteus.
//
// The module speaks the IR directly: Rounds and Exec take an isa.Op, which
// operations PuD-SSD runs is the operation table's PuD column
// (isa.Supports), operand shapes follow isa.Op.Sources, and results come
// from isa.Apply. What this package owns is the cost: Rounds, the bbop
// count per operation and element width.
package dram
