package conduit_test

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	conduit "conduit"
)

// xorFilterSource is a second tiny application so serving tests cover more
// than one registered app per server.
func xorFilterSource(n int) *conduit.Source {
	a := make([]byte, n)
	b := make([]byte, n)
	for i := range a {
		a[i] = byte(i * 11)
		b[i] = byte(i*7 + 3)
	}
	return &conduit.Source{
		Name: "mini-xor",
		Arrays: []*conduit.Array{
			{Name: "a", Elem: 1, Len: n, Input: true, Fill: conduit.Bytes(a)},
			{Name: "b", Elem: 1, Len: n, Input: true, Fill: conduit.Bytes(b)},
			{Name: "out", Elem: 1, Len: n},
		},
		Stmts: []conduit.Stmt{
			conduit.Loop{Name: "fold", N: n, Body: []conduit.Assign{
				{Target: "out", Value: conduit.Bin{Op: conduit.OpXor,
					X: conduit.Ref{Name: "a"}, Y: conduit.Ref{Name: "b"}}},
			}},
		},
	}
}

// TestServeConcurrentMatchesSerial is the serving determinism guarantee:
// N concurrent requests for each (workload, policy) cell, multiplexed over
// pool-managed pre-forked devices, produce results byte-identical to a
// serial loop of fresh full-deploy runs. The clients of one device cell
// share the decision record its deployment published and query its
// reservoir at once. Run with -race to also exercise the engine's
// concurrency contract.
func TestServeConcurrentMatchesSerial(t *testing.T) {
	cfg := conduit.DefaultConfig()
	apps := map[string]*conduit.Source{
		"quickstart": quickstartSource(2 * 16384),
		"mini-xor":   xorFilterSource(2 * 16384),
	}
	policies := []string{"CPU", "Conduit", "Ares-Flash", "Ideal"}

	// Serial reference: a fresh NVMe deploy per cell, strictly sequential.
	sys := conduit.NewSystem(cfg)
	serial := make(map[string]resultKey)
	for name, src := range apps {
		c, err := conduit.Compile(src, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range policies {
			r, err := sys.RunCompiled(c, p)
			if err != nil {
				t.Fatalf("serial %s/%s: %v", name, p, err)
			}
			serial[name+"|"+p] = keyOf(r)
		}
	}

	// Served path: every cell requested concurrently from several clients,
	// with pre-forking on and coalescing off so each request really
	// executes on its own pooled fork.
	srv := conduit.NewServer(cfg, conduit.ServeOptions{
		Concurrency: 4, Prefork: 2,
	})
	for name, src := range apps {
		if err := srv.Register(name, src); err != nil {
			t.Fatal(err)
		}
	}
	const clientsPerCell = 3
	var wg sync.WaitGroup
	for name := range apps {
		for _, p := range policies {
			for i := 0; i < clientsPerCell; i++ {
				wg.Add(1)
				go func(name, p string) {
					defer wg.Done()
					resp, err := srv.Do(conduit.Request{Tenant: "t-" + p, Workload: name, Policy: p})
					if err != nil {
						t.Errorf("%s/%s: %v", name, p, err)
						return
					}
					r := conduit.ResultOf(resp)
					if r == nil {
						t.Errorf("%s/%s: no result", name, p)
						return
					}
					if got, want := keyOf(r), serial[name+"|"+p]; !reflect.DeepEqual(got, want) {
						t.Errorf("%s under %s: served result differs from serial fresh-deploy run\n got: %+v\nwant: %+v",
							name, p, got, want)
					}
				}(name, p)
			}
		}
	}
	wg.Wait()

	// Once published, a device cell's record is every later request's:
	// two in a row return one decision trace. (CPU runs on the host.)
	for name := range apps {
		for _, p := range policies[1:] {
			var first *conduit.RunResult
			for i := 0; i < 2; i++ {
				resp, err := srv.Do(conduit.Request{Tenant: "t-" + p, Workload: name, Policy: p})
				if err != nil {
					t.Fatalf("%s/%s: %v", name, p, err)
				}
				if r := conduit.ResultOf(resp); first == nil {
					first = r
				} else if &r.Decisions[0] != &first.Decisions[0] || r.InstLatencies != first.InstLatencies {
					t.Errorf("%s/%s: a repeated request did not reuse the published record", name, p)
				}
			}
		}
	}

	// Per-tenant accounting saw every request.
	var total int64
	for _, ts := range srv.Tenants() {
		total += ts.Requests
		if ts.Errors != 0 {
			t.Errorf("tenant %s: %d errors", ts.Tenant, ts.Errors)
		}
	}
	if want := int64(len(apps) * (len(policies)*clientsPerCell + 2*(len(policies)-1))); total != want {
		t.Errorf("accounted %d requests, want %d", total, want)
	}
	srv.Drain()
}

// TestServeCoalescedMatchesSerial: with batching on, concurrent identical
// requests may share one execution — and the shared responses must still
// be byte-identical to the serial path.
func TestServeCoalescedMatchesSerial(t *testing.T) {
	cfg := conduit.DefaultConfig()
	src := quickstartSource(2 * 16384)
	c, err := conduit.Compile(src, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := conduit.NewSystem(cfg).RunCompiled(c, "Conduit")
	if err != nil {
		t.Fatal(err)
	}
	wantKey := keyOf(want)

	srv := conduit.NewServer(cfg, conduit.ServeOptions{
		Concurrency: 8, Prefork: 2, Coalesce: true,
	})
	if err := srv.RegisterCompiled("quickstart", c); err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := srv.Do(conduit.Request{Tenant: "t", Workload: "quickstart", Policy: "Conduit"})
			if err != nil {
				t.Error(err)
				return
			}
			if got := keyOf(conduit.ResultOf(resp)); !reflect.DeepEqual(got, wantKey) {
				t.Errorf("coalesced response differs from serial run")
			}
		}()
	}
	wg.Wait()
}

// TestServeDrainLeavesNoLeakedForks: draining the server closes every
// pool and releases every fork it holds — the ready ones and the used
// devices parked for reuse; admission is closed.
func TestServeDrainLeavesNoLeakedForks(t *testing.T) {
	cfg := conduit.DefaultConfig()
	srv := conduit.NewServer(cfg, conduit.ServeOptions{Concurrency: 2, Prefork: 3})
	if err := srv.Register("quickstart", quickstartSource(2*16384)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := srv.Do(conduit.Request{Tenant: "t", Workload: "quickstart", Policy: "Conduit"}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()
	srv.Drain() // idempotent

	if _, err := srv.Do(conduit.Request{Tenant: "t", Workload: "quickstart", Policy: "Conduit"}); !errors.Is(err, conduit.ErrDraining) {
		t.Fatalf("Do after Drain: err=%v, want ErrDraining", err)
	}
	// Registration after Drain must refuse instead of deploying and
	// cloning a fresh pool.
	if err := srv.Register("late", xorFilterSource(2*16384)); !errors.Is(err, conduit.ErrDraining) {
		t.Fatalf("Register after Drain: err=%v, want ErrDraining", err)
	}
	pools := srv.PoolStats()
	ps, ok := pools["quickstart"]
	if !ok {
		t.Fatal("pool stats missing after drain")
	}
	if !ps.Closed {
		t.Error("pool still open after drain")
	}
	if ps.Idle != 0 {
		t.Errorf("%d forks still ready or parked after drain", ps.Idle)
	}
	if n := srv.ParkedForks(); n != 0 {
		t.Errorf("%d used devices still parked for reuse after drain", n)
	}
	// Every device-run request was served through the pool path.
	if ps.Hits+ps.Misses < 4 {
		t.Errorf("pool served %d forks, want >= 4", ps.Hits+ps.Misses)
	}
	if ps.Restored > ps.Preforked+ps.Misses {
		t.Errorf("%d forks restored out of %d made", ps.Restored, ps.Preforked+ps.Misses)
	}
}

// TestDeploymentPreforkMatchesInlineFork: a pool-served fork runs
// byte-identically to an inline clone of the same deployment.
func TestDeploymentPreforkMatchesInlineFork(t *testing.T) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	c, err := conduit.Compile(quickstartSource(2*16384), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := dep.Run("Conduit") // no pool yet: inline clone
	if err != nil {
		t.Fatal(err)
	}
	pool := dep.Prefork(2)
	defer dep.Close()
	pooled, err := dep.Run("Conduit") // pool-managed fork
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keyOf(inline), keyOf(pooled)) {
		t.Fatal("pool-served fork differs from inline clone")
	}
	if st := pool.Stats(); st.Hits+st.Misses == 0 {
		t.Fatal("pooled run bypassed the pool")
	}
}

// TestUnknownPolicyErrorListsAllNames: the Policies()/devicePolicy
// mismatch fix — rejections must name every valid policy, including the
// ablations that Policies() does not advertise.
func TestUnknownPolicyErrorListsAllNames(t *testing.T) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	c, err := conduit.Compile(quickstartSource(2*16384), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	all := append(conduit.Policies(), conduit.AblationPolicies()...)
	check := func(label string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: unknown policy accepted", label)
		}
		for _, name := range all {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: error does not name valid policy %q: %v", label, name, err)
			}
		}
	}
	_, err = sys.RunCompiled(c, "bogus")
	check("System.RunCompiled", err)
	_, err = dep.Run("bogus")
	check("Deployment.Run", err)
}

// TestAblationPoliciesAllRun: every name AblationPolicies advertises is
// actually runnable.
func TestAblationPoliciesAllRun(t *testing.T) {
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	c, err := conduit.Compile(quickstartSource(2*16384), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Deploy(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range conduit.AblationPolicies() {
		r, err := dep.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if r.Policy != p || r.Elapsed <= 0 {
			t.Fatalf("%s: malformed result %+v", p, r)
		}
	}
}
