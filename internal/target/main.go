package target

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	conduit "conduit"
	"conduit/internal/drive"
)

// Main is the conduit-target entry point, factored here so the wiretest
// harness can re-exec the test binary into a real target process. It
// prints "LISTENING <addr>" on stdout once the listener is bound (the
// contract harnesses and fleet scripts parse), serves until SIGTERM,
// SIGINT, or a Drain frame, and returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("conduit-target", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := drive.Declare(fs, drive.Target)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	serve, err := f.ServeOptions()
	if err != nil {
		fmt.Fprintf(stderr, "conduit-target: %v\n", err)
		return 2
	}
	// Targets always arm the tracer so wire-sampled requests can be
	// recorded on demand, and always leave the wall clock unset: a
	// target's spans cross the wire, where only the deterministic
	// simulated timeline is welcome.
	serve.Trace = &conduit.TraceOptions{SampleEvery: f.TraceSample}
	opts := Options{
		Name:         f.Name,
		Scale:        f.Scale,
		Shards:       f.Shards,
		Mix:          f.MixNames(),
		FaultLogPath: f.FaultLog,
		Serve:        serve,
	}

	s, err := New(f.Listen, opts)
	if err != nil {
		fmt.Fprintf(stderr, "conduit-target: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "LISTENING %s\n", s.Addr())
	fmt.Fprintf(stderr, "conduit-target %s: %d workload(s), %d shard(s); serving on %s\n",
		f.Name, len(s.Workloads()), f.Shards, s.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sigc
		signal.Stop(sigc)
		fmt.Fprintf(stderr, "conduit-target %s: draining\n", f.Name)
		s.Drain()
	}()

	s.Serve()
	fmt.Fprintf(stderr, "conduit-target %s: drained\n", f.Name)
	return 0
}
