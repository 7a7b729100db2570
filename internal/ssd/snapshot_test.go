package ssd

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"conduit/internal/compiler"
	"conduit/internal/config"
	"conduit/internal/isa"
	"conduit/internal/offload"
	"conduit/internal/workloads"
)

// notRestored names every field Restore deliberately leaves alone: scratch
// that each instruction refills or clears before reading, and the arenas of
// dead buffers a device keeps for itself. A field of the Device or of a
// substrate that is in neither this list nor Restore fails
// TestRestoreEqualsClone, so a new field has to be classified.
var notRestored = map[string]bool{
	"ssd.Device.srcScratch":  true, // ISP operand slice, cleared after each instruction
	"ssd.Device.ifpScratch":  true, // IFP operand slice, cleared after each instruction
	"ssd.Device.ops":         true, // refilled by resolveOperands per instruction
	"ssd.Device.feat":        true, // refilled by features per instruction
	"ssd.Device.plan":        true, // refilled by features per instruction
	"cores.Core.pool":        true, // arena: dead result buffers
	"dram.Module.pool":       true, // arena: dead page payloads
	"dram.Module.valScratch": true, // Exec's operand-pointer slice, cleared on exit
}

// ownedParts are the types a Device owns one instance of behind a pointer:
// the walks descend into them. Every other pointer is shared, immutable
// state, which a copy must carry by identity.
var ownedParts = map[string]bool{
	"energy.Account": true, "nand.Array": true, "dram.Module": true, "cores.Core": true,
	"ftl.FTL": true, "ftl.mappingCache": true, "coherence.Directory": true,
}

// inputImage generates c's input pages the way a functional deploy stages
// them.
func inputImage(c *compiler.Compiled, pageSize int) map[isa.PageID][]byte {
	image := make(map[isa.PageID][]byte, len(c.Prog.InputPages))
	for _, p := range c.Prog.InputPages {
		image[p] = make([]byte, pageSize)
		c.InputPage(p, image[p])
	}
	return image
}

func typeName(t reflect.Type) string {
	pkg := t.PkgPath()
	return pkg[strings.LastIndex(pkg, "/")+1:] + "." + t.Name()
}

func isCowTable(t reflect.Type) bool {
	return t.Kind() == reflect.Struct && strings.HasSuffix(t.PkgPath(), "internal/cow")
}

// lift returns v with the read-only flag of an unexported field lifted.
func lift(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// scribbler overwrites every field reachable from a device with a valid
// value that is neither the zero value nor, with overwhelming likelihood,
// what the master holds: a field Restore forgets keeps it. It never writes
// through a slice, map or shared pointer it finds (those may be the
// master's): it replaces them.
type scribbler struct {
	seen   map[unsafe.Pointer]bool
	tables int
}

func (s *scribbler) scribble(v reflect.Value) {
	v = lift(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int()&0x3f | 0x40) // nonzero, and fits an int8
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint()&0x3f | 0x40)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1234.5)
	case reflect.String:
		v.SetString("garbage")
	case reflect.Slice:
		g := reflect.MakeSlice(v.Type(), v.Len()+3, v.Len()+3)
		for i := 0; i < g.Len(); i++ {
			s.scribble(g.Index(i))
		}
		v.Set(g)
	case reflect.Map:
		g := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			s.scribble(k)
			k.SetInt(k.Int() + int64(i)) // every map here is keyed by an integer
			s.scribble(e)
			g.SetMapIndex(k, e)
		}
		v.Set(g)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			s.scribble(v.Index(i))
		}
	case reflect.Interface:
		v.Set(reflect.Zero(v.Type()))
	case reflect.Pointer:
		switch {
		case !ownedParts[typeName(v.Type().Elem())]:
			v.Set(reflect.New(v.Type().Elem())) // shared state: a pointer that is certainly not the master's
		case v.IsNil() || s.seen[v.UnsafePointer()]:
			v.Set(reflect.Zero(v.Type())) // an alias of a part already scribbled (a substrate's en, the FTL's arr)
		default:
			s.seen[v.UnsafePointer()] = true
			s.scribble(v.Elem())
		}
	case reflect.Struct:
		if isCowTable(v.Type()) {
			s.scribbleTable(v)
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if !notRestored[typeName(v.Type())+"."+v.Type().Field(i).Name] {
				s.scribble(v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("scribble: unhandled kind %v", v.Kind()))
	}
}

// scribbleTable leaves a cow.Table valid but wrong, alternately in the two
// ways Restore has to cope with: every node and leaf owned, every leaf
// dirty and full of garbage (so even a warm restore, which copies back
// only dirty leaves, must overwrite them all), or a table of another
// length that owns nothing and remembers no source (so the restore walks
// it).
func (s *scribbler) scribbleTable(v reflect.Value) {
	n, nodes, owned := lift(v.FieldByName("n")), lift(v.FieldByName("nodes")), lift(v.FieldByName("owned"))
	dirtied, src := lift(v.FieldByName("dirtied")), lift(v.FieldByName("src"))
	nn := nodes.Len()
	s.tables++
	if s.tables%2 == 0 {
		nn += 2
		n.SetInt(n.Int() + 2<<14)
		src.Set(reflect.Zero(src.Type()))
	}
	gnodes, gowned := reflect.MakeSlice(nodes.Type(), nn, nn), reflect.MakeSlice(owned.Type(), nn, nn)
	gdirty := reflect.MakeSlice(dirtied.Type(), 0, 0)
	for k := 0; k < nn; k++ {
		nd := reflect.New(nodes.Type().Elem().Elem()).Elem()
		leaves, state := lift(nd.FieldByName("leaves")), lift(nd.FieldByName("state"))
		for l := 0; l < leaves.Len(); l++ {
			leaf := reflect.New(leaves.Type().Elem().Elem())
			if s.tables%2 != 0 {
				s.scribble(leaf.Elem())
				state.Index(l).SetUint(2) // dirty
				gdirty = reflect.Append(gdirty, reflect.ValueOf(int32(k*leaves.Len()+l)))
			}
			leaves.Index(l).Set(leaf)
		}
		gowned.Index(k).SetBool(s.tables%2 != 0)
		gnodes.Index(k).Set(nd.Addr())
	}
	nodes.Set(gnodes)
	owned.Set(gowned)
	dirtied.Set(gdirty)
}

// comparer checks that two devices hold the same state the way a copy
// must: equal values, equal table contents (ownership aside), shared state
// by identity, and the same aliasing among the owned parts.
type comparer struct {
	t     *testing.T
	twins map[unsafe.Pointer]unsafe.Pointer // owned part of got -> its counterpart in want
}

func (c *comparer) same(path string, got, want reflect.Value) {
	got, want = lift(got), lift(want)
	switch got.Kind() {
	case reflect.Pointer:
		switch {
		case got.IsNil() || want.IsNil():
			if got.IsNil() != want.IsNil() {
				c.t.Errorf("%s: nil on one side only", path)
			}
		case !ownedParts[typeName(got.Type().Elem())]:
			if got.UnsafePointer() != want.UnsafePointer() {
				c.t.Errorf("%s: shared state is not carried by identity", path)
			}
		default:
			if twin, seen := c.twins[got.UnsafePointer()]; seen {
				if twin != want.UnsafePointer() {
					c.t.Errorf("%s: points at a different part than in the clone", path)
				}
				return
			}
			c.twins[got.UnsafePointer()] = want.UnsafePointer()
			c.same(path, got.Elem(), want.Elem())
		}
	case reflect.Struct:
		if isCowTable(got.Type()) {
			c.sameTable(path, got, want)
			return
		}
		for i := 0; i < got.NumField(); i++ {
			if name := got.Type().Field(i).Name; !notRestored[typeName(got.Type())+"."+name] {
				c.same(path+"."+name, got.Field(i), want.Field(i))
			}
		}
	case reflect.Slice, reflect.Map:
		// An emptied slice that kept its storage equals a nil one.
		if got.Len() != 0 || want.Len() != 0 {
			c.sameValue(path, got, want)
		}
	default:
		c.sameValue(path, got, want)
	}
}

func (c *comparer) sameValue(path string, got, want reflect.Value) {
	if !reflect.DeepEqual(got.Interface(), want.Interface()) {
		c.t.Errorf("%s: restored device differs from a clone of the master", path)
	}
}

func (c *comparer) sameTable(path string, got, want reflect.Value) {
	if d := lift(got.FieldByName("dirtied")).Len(); d != 0 {
		c.t.Errorf("%s: %d leaves still dirty after Restore", path, d)
	}
	gn, wn := lift(got.FieldByName("n")).Int(), lift(want.FieldByName("n")).Int()
	gnodes, wnodes := lift(got.FieldByName("nodes")), lift(want.FieldByName("nodes"))
	if gn != wn || gnodes.Len() != wnodes.Len() {
		c.t.Errorf("%s: table of %d entries in %d nodes, the clone's has %d in %d", path, gn, gnodes.Len(), wn, wnodes.Len())
		return
	}
	for k := 0; k < gnodes.Len(); k++ {
		gl, wl := lift(gnodes.Index(k).Elem().FieldByName("leaves")), lift(wnodes.Index(k).Elem().FieldByName("leaves"))
		for l := 0; l < gl.Len(); l++ {
			if !reflect.DeepEqual(gl.Index(l).Elem().Interface(), wl.Index(l).Elem().Interface()) {
				c.t.Errorf("%s: node %d leaf %d differs from the clone's", path, k, l)
			}
		}
	}
}

// TestRestoreEqualsClone is what makes a forgotten field impossible: a
// device that has executed, and whose every field — its own and each
// substrate's, notRestored aside — has then been overwritten with garbage,
// is restored from the deployed master and must equal a clone of it, then
// run like one. Timing-only and functional.
func TestRestoreEqualsClone(t *testing.T) {
	w, ok := workloads.Find("heat-3d", 1)
	if !ok {
		t.Fatal("no workload heat-3d")
	}
	for _, timing := range []bool{true, false} {
		cfg := config.Default()
		cfg.SSD.TimingOnly = timing
		// Few DRAM slots, so the first run also evicts to flash and owns
		// chunks of every copy-on-write table.
		cfg.SSD.DRAMSize = int64(16 * cfg.SSD.PageSize)
		c, err := compiler.Compile(w.Source, cfg.SSD.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		master := New(&cfg)
		if err := master.LoadProgram(c.Prog, inputImage(c, cfg.SSD.PageSize)); err != nil {
			t.Fatal(err)
		}
		master.Freeze()
		run := func(d *Device) *Result {
			t.Helper()
			d.EnterComputationMode()
			res, err := d.Run(offload.Conduit{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}

		used := master.Clone()
		run(used)
		(&scribbler{seen: map[unsafe.Pointer]bool{}}).scribble(reflect.ValueOf(used).Elem())
		used.Restore(master)
		fresh := master.Clone()
		(&comparer{t: t, twins: map[unsafe.Pointer]unsafe.Pointer{}}).same(
			fmt.Sprintf("timing=%v: Device", timing), reflect.ValueOf(used).Elem(), reflect.ValueOf(fresh).Elem())
		if t.Failed() {
			continue
		}

		got, want := run(used), run(fresh)
		if got.Elapsed != want.Elapsed || !reflect.DeepEqual(got.Decisions, want.Decisions) ||
			!reflect.DeepEqual(got.Counters, want.Counters) || got.ComputeEnergy != want.ComputeEnergy ||
			got.MovementEnergy != want.MovementEnergy {
			t.Errorf("timing=%v: the restored device ran differently from a clone", timing)
		}
		requireIndexesMatchScan(t, "restored device after its run", used)
		for _, p := range c.Prog.OutputPages {
			if timing {
				break
			}
			gb, gerr := used.PageBytes(p)
			wb, werr := fresh.PageBytes(p)
			if gerr != nil || werr != nil || !reflect.DeepEqual(gb, wb) {
				t.Fatalf("output page %d differs between the restored device and a clone (%v, %v)", p, gerr, werr)
			}
		}
	}
}
