// Package isa defines Conduit's vector intermediate representation: the
// page-aligned SIMD instructions that the compile-time pass emits (§4.3.1)
// and the runtime offloader schedules (§4.3.2), together with the
// capability matrix of the three SSD computation resources and the
// instruction transformation tables that map each vector operation to the
// native ISA of its target resource (MVE for ISP, bbop for PuD-SSD,
// MWS/shift-and-add for IFP).
//
// Every operation is described once, as a row of the operation table in
// optable.go: name, class, latency band, arity, whether an immediate
// replaces the last source, commutativity, PuD capability, in-flash
// mechanism, and vecmath kernel. Class, Band, Arity, Sources, Supports,
// Native and the TranslationTable are reads of that table, and Apply —
// the one functional evaluator every execution substrate and the
// compiler's interpreter share — sits beside it. Adding an operation is
// adding a row (plus its entries in the substrates' latency models), never
// a new switch.
package isa
