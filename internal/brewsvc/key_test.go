package brewsvc

import (
	"testing"

	"repro/internal/brew"
)

// TestKeysGolden pins the entry and cache keys, and their shard hashes,
// to the values the service has always derived: shard placement, the
// cache and the load harness's modeled rows depend on them, so a rewrite
// of the key derivation must reproduce them bit for bit.
func TestKeysGolden(t *testing.T) {
	cfg := brew.NewConfig().SetParam(2, brew.ParamKnown).SetFloatParam(1, brew.ParamKnown)
	const fp = 0xb9e7a556754c97d2
	cases := []struct {
		name         string
		req          Request
		evals, cvals uint64
		ehash, chash uint64
	}{
		{"unguarded",
			Request{Config: cfg, Fn: 0x1234, Args: []uint64{7, 9, 11}, FArgs: []float64{2.5}},
			0x7f75d10f7997c57a, 0x7f75d10f7997c57a, 0xa74466a58fee688b, 0xa74466a58fee688b},
		{"guarded",
			Request{Config: cfg, Fn: 0x1234, Args: []uint64{7, 9}, Guards: []brew.ParamGuard{{Param: 1, Value: 42}}},
			0x42ebc1877d76b1fa, 0x703527f8d4e1ae36, 0x8c26b8e56601d3b7, 0x955fa32f9eeee1af},
		{"multi-guard",
			Request{Config: cfg, Fn: 0x1234, Args: []uint64{7, 9, 11}, Guards: []brew.ParamGuard{{Param: 1, Value: 42}, {Param: 3, Value: 5}}},
			0xcf63702f6100f0ba, 0x3c6f0be7c25da173, 0x73d06b559d8cc48e, 0xf9eb718321e2c178},
		{"unordered-guard",
			Request{Config: cfg, Fn: 0x1234, Args: []uint64{7, 9, 11}, Guards: []brew.ParamGuard{{Param: 3, Value: 5}, {Param: 1, Value: 42}}},
			0xcf63702f6100f0ba, 0x3c6f0be7c25da173, 0x73d06b559d8cc48e, 0xf9eb718321e2c178},
		{"same-param-guards",
			Request{Config: cfg, Fn: 0x1234, Args: []uint64{7, 9, 11}, Guards: []brew.ParamGuard{{Param: 1, Value: 9}, {Param: 1, Value: 3}}},
			0x916de21d4b225c78, 0xbc2edadc016a0134, 0xc15a4daa4cb140a8, 0x2e1149a0cdd1a118},
	}
	for _, c := range cases {
		ek, k := keysOf(&c.req)
		wantEK := entryKey{fn: 0x1234, cfg: fp, vals: c.evals}
		wantK := cacheKey{fn: 0x1234, cfg: fp, vals: c.cvals}
		if ek != wantEK || k != wantK {
			t.Errorf("%s: keysOf = %+x, %+x; want %+x, %+x", c.name, ek, k, wantEK, wantK)
		}
		if ek.hash() != c.ehash || k.hash() != c.chash {
			t.Errorf("%s: hashes = %#x, %#x; want %#x, %#x", c.name, ek.hash(), k.hash(), c.ehash, c.chash)
		}
	}
}
