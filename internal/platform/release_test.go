package platform_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/trace"
)

// finalReleaseDigests are the digests of every registered platform
// scenario's run without a final gather, recorded before the last barrier
// was settled after the ranks return: each rank's Stats (IdleSeconds by its
// bits), Elapsed and PhaseTimes. Keyed "scenario/procs".
var finalReleaseDigests = map[string]string{
	"battlefield/1":        "557a9cb02222dc4bc5d15aa44d48e222d1237dd74dc617b5e39d735a477c4cb9",
	"battlefield/7":        "d21b4bcdadffd1a8b21acfeadf0b703bcacbec95e056eb4db53c7ff911a75b3c",
	"battlefield/4096":     "3b97c39f0f47c8918a6f4fae7c6eb9fc8606599c578464a1909cb1888d080d6f",
	"heat/1":               "790e5f963b62780868ef55a2eacd0f72ee65e37168bee7385cda861044a1b196",
	"heat/7":               "29006a00957b8d2dddce11ce833663bc90fe1ffefc4bb29bd16bc874fa2fab15",
	"heat/4096":            "b006caef260279fce67c619b06529916dc069dffb6a384e60884816e815a8dee",
	"hex32-fine/1":         "37c74d95fde858e9f85d759b3671bc4abc0869c63d8578d2795c77ec12e258e9",
	"hex32-fine/7":         "c575dee94fc545c50eabc6f11b7738ba780b73dfc146136d1e2f03c3b51238f8",
	"hex32-fine/4096":      "d209305bb85f59ff251e9da8c052d27ec100b7241fce07bc043a396d339713db",
	"hex64-coarse/1":       "0125408add7b09f0e1faa7a9cd3b50b213ffa0ffea4d75038ab4c78021fca63f",
	"hex64-coarse/7":       "2f1083efb65076919390596aa5650fb4da8226682edb21476014599ac31688a6",
	"hex64-coarse/4096":    "551a81e8ec8b9547c9554175f3b6bf6a3b0e17cb7579daca76844b6dca769818",
	"hex64-fine/1":         "21ae444a2467e8a3cabc6e057511b56a527c0fbdc6026fb7e160016b3057eecc",
	"hex64-fine/7":         "7175e12725ba84803307ae2d2197f6741c68b2088fbc8f8b9b2c507ab8386bd7",
	"hex64-fine/4096":      "c582405586509fb964cc447eccc5268945c7ceae68ad1716d2b4b6f84d33b311",
	"hex96-fine/1":         "b097d2d7f98838be2ff349762f4714c439ada06d2f90e94ea71fe26b29c9dd3c",
	"hex96-fine/7":         "0bf227c755457acb77a5a163c221690e7110b48da4f865af15755a4e5c771723",
	"hex96-fine/4096":      "6da67b52f9cfab76b6fd060314aa0015a5f9ed99f174312b5de0f7cff58c7893",
	"imbalance/1":          "47429ad3ead1114e89d55fd51d11c807b2f90f465800852dc9b1a3bb61eb041d",
	"imbalance/7":          "a149dd2e0962b2e0024d3082a77362f4239547737a90951b024f6b85044351ea",
	"imbalance/4096":       "5ad3bd24aa3a1a8afd835f9bda2186fce4f4d86b6acfbc38b975eafc239bd4d4",
	"life/1":               "688f9a2a944d8127f10aec1c43f5f94cf9fab5291359a8d226eaf9d576be4093",
	"life/7":               "95284ec07f7b5459fa14aab83cac579219b588a4ddeb72668e3b6e62610b4d04",
	"life/4096":            "49bd9b771a555c27af5d0bb7927a71e5059d7f30edfe4b97e0c0dbf549b13ad6",
	"random32-fine/1":      "f65f78b5e954a244c212240baa7a1371f6edeae7c452cbadf1167deaf491e0e5",
	"random32-fine/7":      "d080d6adc3d9ba4c70040f09b0c2062f810399a4a52ea8d214c5796acf91d088",
	"random32-fine/4096":   "8cc087607f643ce51a0f2b7cdf1d9f3dac1e6104934f60bbd037d60b0db90ddc",
	"random64-coarse/1":    "020c83859c142deac80eaf33685bcdb6c113c76311011e4742c7116769acf2cb",
	"random64-coarse/7":    "4698f8dc68f62ffd15c618a5edb040ff5ff4d79042f141804d9d821ecf83df8a",
	"random64-coarse/4096": "5d94af40bed23ded2d9f5baa9b5ce9b97f71c44dee89216573cfb526c05a1b64",
	"random64-fine/1":      "a71d5b3f6821d1bd435376f9e05898b370c0a0602bac35bc0699b380416bd001",
	"random64-fine/7":      "2fef5b5e0d621b8f011e6c4951a04ad9aa2d0ca2ccda8b5a92f9f17d2bc14199",
	"random64-fine/4096":   "68bcd5d3a1f205d2b8ca795b5c562a93835b131d25c72a20b71c900c7351e449",
	"sssp/1":               "91c43b468098ed0e7e111a33366f61b4726be802565d48d090bd87eb4a2d2ae7",
	"sssp/7":               "85bf5754f1c05760de3f59a28ee890efe4209f5ef5ffd11114fb7d89a1ecf2ab",
	"sssp/4096":            "6da67b52f9cfab76b6fd060314aa0015a5f9ed99f174312b5de0f7cff58c7893",
}

// TestFinalReleasePinned holds how a run that skips the final gather ends:
// every rank leaves at the latest rank's clock, idle for the difference, and
// Elapsed runs to that clock. Each registered platform scenario runs at one
// processor, at an uneven count and at 4096 (3 iterations there, so no
// balancing round builds a 4096² matrix), fresh, traced while checkpointing
// and resumed from the middle snapshot; all three must give the pinned
// digest. Settling the release without adding it to IdleSeconds fails it.
func TestFinalReleasePinned(t *testing.T) {
	for _, sc := range scenario.List() {
		if sc.Runner != nil {
			continue
		}
		for _, procs := range []int{1, 7, 4096} {
			key := fmt.Sprintf("%s/%d", sc.Name, procs)
			t.Run(key, func(t *testing.T) {
				p := scenario.Params{Procs: procs}
				if procs == 4096 {
					if platform.RaceEnabled {
						t.Skip("4096 ranks under the race detector")
					}
					p.Iterations = 3
				}
				cfg, err := sc.Config(p)
				if err != nil {
					t.Fatal(err)
				}
				if !cfg.SkipFinalGather {
					t.Fatal("scenario config gathers final data; the pin is for runs that skip it")
				}
				want, ok := finalReleaseDigests[key]
				for mode, digest := range releaseDigests(t, *cfg) {
					if !ok {
						t.Errorf("%s: no pinned digest; got %s", mode, digest)
					} else if digest != want {
						t.Errorf("%s: digest %s, want %s", mode, digest, want)
					}
				}
			})
		}
	}
}

// releaseDigests runs cfg fresh, traced with a checkpoint at its middle
// iteration and resumed from that checkpoint, and digests each Result.
func releaseDigests(t *testing.T, cfg platform.Config) map[string]string {
	t.Helper()
	out := map[string]string{}
	run := func(mode string, c platform.Config) {
		res, err := platform.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		out[mode] = releaseDigest(res)
	}
	run("fresh", cfg)

	var snap *platform.RunSnapshot
	traced := cfg
	traced.Trace = new(trace.Recorder)
	traced.CheckpointEvery = max(1, cfg.Iterations/2)
	traced.CheckpointSink = func(s *platform.RunSnapshot) error {
		if snap == nil {
			snap = s
		}
		return nil
	}
	run("traced", traced)
	if snap == nil {
		t.Fatal("traced run captured no snapshot")
	}

	resumed := cfg
	resumed.ResumeFrom = snap
	run(fmt.Sprintf("resumed at %d", snap.Iter), resumed)
	return out
}

// releaseDigest is the SHA-256 of every rank's Stats, Elapsed and every
// rank's PhaseTimes, floats by their bits.
func releaseDigest(res *platform.Result) string {
	h := sha256.New()
	var b []byte
	for _, s := range res.Stats {
		for _, n := range []int{s.MessagesSent, s.MessagesReceived, s.BytesSent, s.BytesReceived} {
			b = binary.LittleEndian.AppendUint64(b, uint64(n))
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.IdleSeconds))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.Elapsed))
	for _, times := range res.PhaseTimes {
		for _, v := range times {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
