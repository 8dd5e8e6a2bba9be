package brew_test

import (
	"testing"
	"time"

	"repro/internal/brew"
	"repro/internal/stencil"
)

// TestFingerprintOrderIndependent proves the satellite contract: two
// semantically equal configurations built by different call sequences
// fingerprint identically.
func TestFingerprintOrderIndependent(t *testing.T) {
	a := brew.NewConfig()
	a.SetParam(1, brew.ParamKnown)
	a.SetParamPtrToKnown(2, 64)
	a.SetFloatParam(1, brew.ParamKnown)
	a.SetMemRange(0x1000, 0x2000)
	a.SetMemRange(0x3000, 0x4000)
	a.SetFuncOpts(0x100, brew.FuncOpts{NoInline: true})
	a.SetFuncOpts(0x200, brew.FuncOpts{BranchesUnknown: true})
	a.MarkDynamic(0x500)
	a.MarkDynamic(0x600)

	// Same declarations, every insertion order reversed.
	b := brew.NewConfig()
	b.MarkDynamic(0x600)
	b.MarkDynamic(0x500)
	b.SetFuncOpts(0x200, brew.FuncOpts{BranchesUnknown: true})
	b.SetFuncOpts(0x100, brew.FuncOpts{NoInline: true})
	b.SetMemRange(0x3000, 0x4000)
	b.SetMemRange(0x1000, 0x2000)
	b.SetFloatParam(1, brew.ParamKnown)
	b.SetParamPtrToKnown(2, 64)
	b.SetParam(1, brew.ParamKnown)

	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("order-dependent fingerprint: %#x != %#x", a.Fingerprint(), b.Fingerprint())
	}
}

// TestFingerprintDuplicateRange: re-declaring a known range adds no new
// assumption and must not change the fingerprint.
func TestFingerprintDuplicateRange(t *testing.T) {
	a := brew.NewConfig().SetMemRange(0x1000, 0x2000)
	b := brew.NewConfig().SetMemRange(0x1000, 0x2000).SetMemRange(0x1000, 0x2000)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("duplicate range changed fingerprint: %#x != %#x", a.Fingerprint(), b.Fingerprint())
	}
}

// TestFingerprintUnrollSugar: UnrollFactor is declared sugar for
// BranchesUnknown+MaxVariants (config.go), so the two spellings are the
// same specialization and must share a cache slot.
func TestFingerprintUnrollSugar(t *testing.T) {
	a := brew.NewConfig().SetFuncOpts(0x100, brew.FuncOpts{UnrollFactor: 4})
	b := brew.NewConfig().SetFuncOpts(0x100, brew.FuncOpts{BranchesUnknown: true, MaxVariants: 4})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("unroll sugar fingerprints differ: %#x != %#x", a.Fingerprint(), b.Fingerprint())
	}
	c := brew.NewConfig().SetFuncOpts(0x100, brew.FuncOpts{BranchesUnknown: true, MaxVariants: 8})
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different unroll factors collide")
	}
	// The sugar also applies to Defaults.
	d := brew.NewConfig()
	d.Defaults = brew.FuncOpts{UnrollFactor: 4}
	e := brew.NewConfig()
	e.Defaults = brew.FuncOpts{BranchesUnknown: true, MaxVariants: 4}
	if d.Fingerprint() != e.Fingerprint() {
		t.Fatalf("Defaults unroll sugar fingerprints differ")
	}
}

// TestFingerprintDistinguishes: every declared assumption dimension must
// move the fingerprint — a collision here would let the service hand out
// the wrong specialization.
func TestFingerprintDistinguishes(t *testing.T) {
	base := func() *brew.Config { return brew.NewConfig() }
	variants := map[string]func(*brew.Config){
		"int-param":      func(c *brew.Config) { c.SetParam(1, brew.ParamKnown) },
		"int-param-pos":  func(c *brew.Config) { c.SetParam(2, brew.ParamKnown) },
		"ptr-param":      func(c *brew.Config) { c.SetParamPtrToKnown(1, 64) },
		"ptr-size":       func(c *brew.Config) { c.SetParamPtrToKnown(1, 128) },
		"float-param":    func(c *brew.Config) { c.SetFloatParam(1, brew.ParamKnown) },
		"range":          func(c *brew.Config) { c.SetMemRange(0x1000, 0x2000) },
		"range-extent":   func(c *brew.Config) { c.SetMemRange(0x1000, 0x3000) },
		"funcopts":       func(c *brew.Config) { c.SetFuncOpts(0x100, brew.FuncOpts{NoInline: true}) },
		"funcopts-addr":  func(c *brew.Config) { c.SetFuncOpts(0x200, brew.FuncOpts{NoInline: true}) },
		"dyn-marker":     func(c *brew.Config) { c.MarkDynamic(0x500) },
		"defaults":       func(c *brew.Config) { c.Defaults = brew.FuncOpts{ResultsUnknown: true} },
		"trace-limit":    func(c *brew.Config) { c.MaxTracedInstrs = 1000 },
		"block-limit":    func(c *brew.Config) { c.MaxBlocks = 7 },
		"inline-limit":   func(c *brew.Config) { c.MaxInlineDepth = 3 },
		"variants-limit": func(c *brew.Config) { c.MaxVariantsPerAddr = 5 },
		"code-limit":     func(c *brew.Config) { c.MaxCodeBytes = 4096 },
		"entry-handler":  func(c *brew.Config) { c.EntryHandler = 0x900 },
		"exit-handler":   func(c *brew.Config) { c.ExitHandler = 0x900 },
		"load-handler":   func(c *brew.Config) { c.LoadHandler = 0x900 },
		"store-handler":  func(c *brew.Config) { c.StoreHandler = 0x900 },
		"vectorize":      func(c *brew.Config) { c.Vectorize = true },
		"budget":         func(c *brew.Config) { c.Budget = &brew.Budget{} },
		"budget-instrs":  func(c *brew.Config) { c.Budget = &brew.Budget{MaxTracedInstrs: 100} },
		"budget-bytes":   func(c *brew.Config) { c.Budget = &brew.Budget{MaxEmittedBytes: 100} },
		"budget-time":    func(c *brew.Config) { c.Budget = &brew.Budget{Deadline: time.Second} },
	}
	seen := map[uint64]string{base().Fingerprint(): "base"}
	for name, mutate := range variants {
		c := base()
		mutate(c)
		got := c.Fingerprint()
		if prev, dup := seen[got]; dup {
			t.Errorf("%q collides with %q: %#x", name, prev, got)
			continue
		}
		seen[got] = name
		// Determinism: rebuilding the same variant reproduces the hash.
		c2 := base()
		mutate(c2)
		if c2.Fingerprint() != got {
			t.Errorf("%q: fingerprint not deterministic", name)
		}
	}
}

// TestFingerprintIgnoresInject: the fault-injection seam is runtime
// behavior, not a rewrite assumption, and must not enter the cache key.
func TestFingerprintIgnoresInject(t *testing.T) {
	a := brew.NewConfig()
	b := brew.NewConfig()
	b.Inject = func(string) error { return nil }
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("Inject hook changed the fingerprint")
	}
}

// TestCloneIndependent: mutating a clone must not leak into the original
// (Do relies on this for guarded requests).
func TestCloneIndependent(t *testing.T) {
	orig := brew.NewConfig()
	orig.SetParam(1, brew.ParamKnown)
	orig.SetMemRange(0x1000, 0x2000)
	orig.SetFuncOpts(0x100, brew.FuncOpts{NoInline: true})
	orig.MarkDynamic(0x500)
	orig.Budget = &brew.Budget{MaxTracedInstrs: 100}
	before := orig.Fingerprint()

	cl := orig.Clone()
	if cl.Fingerprint() != before {
		t.Fatal("clone does not fingerprint like the original")
	}
	cl.SetParam(2, brew.ParamKnown)
	cl.SetMemRange(0x3000, 0x4000)
	cl.SetFuncOpts(0x200, brew.FuncOpts{ResultsUnknown: true})
	cl.MarkDynamic(0x600)
	cl.Budget.MaxTracedInstrs = 5
	cl.MaxCodeBytes = 1024

	if orig.Fingerprint() != before {
		t.Fatal("mutating the clone changed the original")
	}
	if cl.Fingerprint() == before {
		t.Fatal("mutating the clone did not change the clone")
	}
	if class, _ := orig.IntParamClass(2); class != brew.ParamUnknown {
		t.Fatal("clone SetParam leaked into original")
	}
	if orig.Budget.MaxTracedInstrs != 100 {
		t.Fatal("clone budget mutation leaked into original")
	}
}

// TestCloneNil: Clone of a nil Config is nil, not a panic.
func TestCloneNil(t *testing.T) {
	var c *brew.Config
	if c.Clone() != nil {
		t.Fatal("Clone of nil should be nil")
	}
}

// goldenConfigs are the configurations whose fingerprints are pinned by
// TestFingerprintGolden: one per section of the hash, plus the stencil
// E1c apply configuration.
func goldenConfigs() map[string]*brew.Config {
	ranges := brew.NewConfig().SetParam(1, brew.ParamKnown).
		SetMemRange(0x3000, 0x4000).SetMemRange(0x1000, 0x2000).
		SetMemRange(0x1000, 0x1800).SetMemRange(0x3000, 0x4000)

	opts := brew.NewConfig().
		SetFuncOpts(0x200, brew.FuncOpts{BranchesUnknown: true, MaxVariants: 3}).
		SetFuncOpts(0x100, brew.FuncOpts{NoInline: true}).
		SetFuncOpts(0x300, brew.FuncOpts{UnrollFactor: 4})
	opts.Defaults = brew.FuncOpts{ResultsUnknown: true}

	dyn := brew.NewConfig().MarkDynamic(0x600).MarkDynamic(0x500).MarkDynamic(0x700)
	dyn.SetFloatParam(2, brew.ParamKnown)

	budget := brew.NewConfig().SetParam(3, brew.ParamKnown)
	budget.Budget = &brew.Budget{MaxTracedInstrs: 5000, MaxEmittedBytes: 4096, Deadline: 3 * time.Millisecond}
	budget.Effort = brew.EffortQuick
	budget.Vectorize = true
	budget.EntryHandler = 0x9000

	return map[string]*brew.Config{
		"new":      brew.NewConfig(),
		"ranges":   ranges,
		"funcopts": opts,
		"dyn":      dyn,
		"budget":   budget,
		"stencil":  brew.NewConfig().SetParam(2, brew.ParamKnown).SetParamPtrToKnown(3, stencil.StructSSize),
	}
}

// TestFingerprintGolden pins fingerprints to the values the
// implementation has always produced: the specialization cache, the
// service's shard placement and persisted spstore records all key on
// them, so any change to the hashed bytes or their order must fail here.
func TestFingerprintGolden(t *testing.T) {
	want := map[string]uint64{
		"new":      0xe63d86d81e69268c,
		"ranges":   0xc45853519f494feb,
		"funcopts": 0x9461a4ad7480e4e9,
		"dyn":      0x5a651499ca8bec71,
		"budget":   0x7eb084c4c698a626,
		"stencil":  0x09c42619e3940def,
	}
	for name, cfg := range goldenConfigs() {
		if got := cfg.Fingerprint(); got != want[name] {
			t.Errorf("%s: Fingerprint = %#x, want %#x", name, got, want[name])
		}
	}
}

// TestFingerprintAllocs: sections of up to eight entries are sorted on
// the stack, so Fingerprint allocates nothing.
func TestFingerprintAllocs(t *testing.T) {
	full := brew.NewConfig().SetParam(1, brew.ParamKnown)
	for i := uint64(8); i > 0; i-- {
		full.SetMemRange(i<<12, i<<12+0x800)
		full.SetFuncOpts(i<<8, brew.FuncOpts{NoInline: i%2 == 0})
		full.MarkDynamic(i << 4)
	}
	full.Budget = &brew.Budget{MaxTracedInstrs: 100}
	cfgs := goldenConfigs()
	cfgs["full"] = full
	for name, cfg := range cfgs {
		if n := testing.AllocsPerRun(100, func() { _ = cfg.Fingerprint() }); n != 0 {
			t.Errorf("%s: Fingerprint allocated %v times/op, want 0", name, n)
		}
	}
}
