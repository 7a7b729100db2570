// Package coherence implements the paper's lazy coherence mechanism for
// data shared across SSD computation resources (§4.4). Each logical page
// carries three fields in the L2P table: the owner (which resource holds
// the latest version), the modification state (clean/dirty), and a one-byte
// monotonically increasing version counter that orders updates and detects
// stale copies. The directory stores two of them: a page is dirty exactly
// when its version is above 0, since a sync resets the version and every
// modification bumps it. Data is synchronized only on the five
// paper-defined triggers, not on every modification.
package coherence
