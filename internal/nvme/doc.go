// Package nvme models the host-SSD command surface Conduit relies on
// (§4.4): regular I/O reads and writes, and the repurposed firmware-update
// admin commands (fw-download / fw-commit) that transfer Conduit's
// compiled binary to the drive. The commit command carries the paper's
// added flag distinguishing a Conduit binary from vendor FTL firmware.
//
// The "binary" is the serialized vector IR program (encoding/gob), staged
// in chunks exactly as NVMe firmware images are.
//
// Host writes stage the caller's input pages, uncopied, until the commit
// installs them; the caller leaves them unchanged until then.
package nvme
