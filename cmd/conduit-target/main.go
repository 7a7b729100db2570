// Command conduit-target runs one conduit serving target: a TCP server
// exposing the in-process serving engine — registered workloads, device
// pools, shard clusters, and the recovery ladder — behind the framed
// wire protocol of internal/wire.
//
// On startup the target registers its workload mix, binds -listen, and
// prints "LISTENING <addr>" on stdout (fleet scripts and the wiretest
// harness parse this line, so -listen 127.0.0.1:0 is the usual spelling:
// the kernel picks the port). Each connection is greeted with a Hello
// frame naming the target and its workloads; requests then flow through
// the same open-loop Submit path as in-process serving, with responses
// written back out of order and correlated by request ID. A Drain frame,
// SIGTERM, or SIGINT triggers the graceful shutdown: admission stops,
// in-flight requests finish and are answered, every device pool closes,
// and the final pool counters are acknowledged so the router can verify
// no fork leaked.
//
// Usage:
//
//	conduit-target -listen 127.0.0.1:9070 -mix aes,llama2-inference -shards 4
//	conduit-target -faults 0.05 -retries 3 -hedge -breaker 4 -fallback CPU
//
// See cmd/conduit-router for the front end that places load across a
// fleet of these.
package main

import (
	"os"

	"conduit/internal/target"
)

func main() {
	os.Exit(target.Main(os.Args[1:], os.Stdout, os.Stderr))
}
