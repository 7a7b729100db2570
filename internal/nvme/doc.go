// Package nvme models the host-SSD command surface Conduit relies on
// (§4.4): regular I/O writes, and the repurposed firmware-update
// admin commands (fw-download / fw-commit) that transfer Conduit's
// compiled binary to the drive. The commit command carries the paper's
// added flag distinguishing a Conduit binary from vendor FTL firmware.
//
// The "binary" is a flat firmware image of the vector IR program, staged
// in chunks as NVMe firmware images are (layout in image.go: a magic whose
// last byte is the layout version, then zigzag-varint fields walked on
// internal/walk's cursor, whose canonical-form and bounded-count rules it
// inherits). A commit also refuses another version, unknown flags and
// trailing bytes, so a decodable image is canonical and decoding
// allocates in proportion to the image.
//
// Host writes stage the caller's input pages, uncopied, until the commit
// installs them; the caller leaves them unchanged until then.
package nvme
