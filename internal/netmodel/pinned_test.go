package netmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"ic2mpi/internal/topology"
)

// TestNamedMachineCostsPinned pins what every named machine charges: per
// Names() entry and processor count, the SHA-256 of every Cost(p, q) in
// row order followed by every Speed[r]. The digests were recorded before
// the link-cost representation was changed and must survive any such
// change untouched — a moved digest is a moved virtual timeline. The flat "uniform" model has no processor graph of
// its own, so its graph twin topology.Uniform is the one hashed.
func TestNamedMachineCostsPinned(t *testing.T) {
	for _, name := range Names() {
		for _, procs := range []int{1, 2, 3, 7, 16, 24, 96, 256, 1500} {
			key := fmt.Sprintf("%s/%d", name, procs)
			m, err := New(name, procs)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			var net *topology.Network
			if topo, ok := m.(Topology); ok {
				net = topo.Net
			} else if net, err = topology.Uniform(procs); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			h := sha256.New()
			var word [8]byte
			put := func(v float64) {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
			for p := 0; p < procs; p++ {
				for q := 0; q < procs; q++ {
					put(net.Cost(p, q))
				}
			}
			for _, s := range net.Speed {
				put(s)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pinnedCosts[key] {
				t.Errorf("%q: %q, // pinned %q", key, got, pinnedCosts[key])
			}
		}
	}
}

var pinnedCosts = map[string]string{
	"uniform/1":      "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
	"uniform/2":      "67aef2f98b0dd5a71bb6a8fdbd9c416f6a80b9feeec581454ec3b802e1625e10",
	"uniform/3":      "825256325e87832f155064f5ad421fa397ec26489fc9a20119c62ceb419df846",
	"uniform/7":      "9411c6b530c26fb709fa9c582c960bb4a50530e4753212bc5673d0a944107cf1",
	"uniform/16":     "85ca9809e982d0d1ff55707885638eafccaa09d3f6176c871aa04c97bba5ed94",
	"uniform/24":     "5d8ea6d46c23dc896270f3bb4ca173bf4018d92a9437a35786dccf9986983e29",
	"uniform/96":     "5cfebf8a46d90160ee2ffc1a06e7a8cbace85f58f0b4f6f8e0bb884a0d198a09",
	"uniform/256":    "f71570ba4e71b732cb6affd2f54e6bea3efa5d5f972b4b16fdc213c12d93e9e1",
	"uniform/1500":   "2f20e78b3ce1db0710d0920a270f1794c68722bd1336174236693c481d5be62f",
	"hypercube/1":    "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
	"hypercube/2":    "67aef2f98b0dd5a71bb6a8fdbd9c416f6a80b9feeec581454ec3b802e1625e10",
	"hypercube/3":    "5eba2877ba77c8ec0f240cfdcbcebd317501a54fe757e693d7fd2bc1f148e5e1",
	"hypercube/7":    "a0d59a5bfe2e54a84a09c554d85809eab00c134fe820e438ec377fc689b0c8d1",
	"hypercube/16":   "bf68869e2915d98c2bbfa19b766cb1e74fe070708b24e1afe8a43067ea7d34cf",
	"hypercube/24":   "be56c8fe43066527a580cbffa8f76940d12d85392ec496bb54156bb582bcfa5d",
	"hypercube/96":   "1c3642f0a139f17cdd212407c72647fb6200208f87b3c4d28f90a38cad750d75",
	"hypercube/256":  "5b8fcbf95340a6880c8dd22c267c25b90e320e3fce4bc467e6b718feb34631d9",
	"hypercube/1500": "d7b8c4edfd245832230cb4e12324a4c9529a1d5deaa5731f34d1b2344e156be7",
	"mesh2d/1":       "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
	"mesh2d/2":       "67aef2f98b0dd5a71bb6a8fdbd9c416f6a80b9feeec581454ec3b802e1625e10",
	"mesh2d/3":       "873ab345a184a577010a532681a68eb6cd936d1fe739353f4abace977c8ebbda",
	"mesh2d/7":       "c1ba75645264d4056b2be70b0a0c1aefca6a5091f8edf71346ecadbee5858868",
	"mesh2d/16":      "c29d34091dc1e0c9d3e5ad81b4b9f71b6fbcbecda032f6da3c01e1d5bd4d0102",
	"mesh2d/24":      "b0aa2e9388b1b0ee84c96e76eac7692aa7c0ee4227e32644e157bd2d689c4a9a",
	"mesh2d/96":      "2a489583a60e29d108a8515d769dd0d5ed99babc807c22793f0b8376e636fcbc",
	"mesh2d/256":     "854b7abc0f7ad13e7c8889b668b276ca90b59a5783e34fbe1e4b9578779aaffb",
	"mesh2d/1500":    "acef7881f181f5a56fee604e70c8494f670de192ad3bbc714c0d7cda893a047f",
	"fattree/1":      "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
	"fattree/2":      "67aef2f98b0dd5a71bb6a8fdbd9c416f6a80b9feeec581454ec3b802e1625e10",
	"fattree/3":      "825256325e87832f155064f5ad421fa397ec26489fc9a20119c62ceb419df846",
	"fattree/7":      "b3774b2e086edb27324327cb7800ca9cbb15a198c90c9fe01dbed5e0d73a3157",
	"fattree/16":     "07cc94208e0123ba638c9a11cb1674990aa576cbddbb12466b3b65b23eecfc2c",
	"fattree/24":     "c9b44eb37c9750595ece0f448989b6adbe59ea2a7a2c96142cd94fa173406637",
	"fattree/96":     "2f1cc96c3e816472e9bf90ca9acb4e75fcd7385ea5757891d20a85cfe23d1afa",
	"fattree/256":    "685e7c60406950bed5750be3694a6e784223ef19fe2e4bac988a25972370b974",
	"fattree/1500":   "d8b16d99927f7b7815a540f29b63b06dc0cbe69f839b765f1caad7a628427388",
	"hetgrid/1":      "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
	"hetgrid/2":      "dad4ba55c3d508f51396cde738bd8e2517d5f809c8b0c0e38a24685312e25f2d",
	"hetgrid/3":      "e04413d57a6b52c6fe13f8b79717dc3c372090cc4caaa026264ab4f3f2e9b482",
	"hetgrid/7":      "42ba62553a09dc97510a4a3c56493b6bf038e79240f96c4bddc8b0760a59b355",
	"hetgrid/16":     "a52eeb5dd87a389ca6ab21d746ed2970db9c44e9e7f69a1e88a1efeefcc7b0b6",
	"hetgrid/24":     "9555a6a47425d861f41589d80b8d0773886437146bc3f8798eb2f20713a411a6",
	"hetgrid/96":     "5d694765b5cd98bc45a63114a9ae658ddb5f4df663c1a08f19a27178b83fa2af",
	"hetgrid/256":    "f6509e717d1a6a6e94f074a66966188dd024a8a6ac05f2d1f85b75b94316bd6f",
	"hetgrid/1500":   "e440532b196db38c1def3c45359fc0577a0a9f2f2a1de9b5627813fe4bb15691",
}
