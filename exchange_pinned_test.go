package ic2mpi_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"ic2mpi"
)

// exchangeDigest is the SHA-256 of everything a run reports: Elapsed, the
// per-processor phase times and message counters (floats by their bits),
// every node's final data, the final partition and the migration count.
func exchangeDigest(res *ic2mpi.Result) string {
	h := sha256.New()
	fmt.Fprintln(h, math.Float64bits(res.Elapsed))
	for _, phase := range res.PhaseTimes {
		for _, s := range phase {
			fmt.Fprintln(h, math.Float64bits(s))
		}
	}
	for _, st := range res.Stats {
		fmt.Fprintln(h, st.MessagesSent, st.MessagesReceived, st.BytesSent, st.BytesReceived, math.Float64bits(st.IdleSeconds))
	}
	for _, d := range res.FinalData {
		fmt.Fprintln(h, d)
	}
	fmt.Fprintln(h, res.FinalPartition, res.Migrations)
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedExchangeOutputs is what the allocate-per-round exchange reported for
// every configuration the four TestExchangeDeterminism* tests run, keyed by
// the name of the (sub)test that runs it. TestExchangeOutputsPinned recorded
// the digests from that exchange in commit 35a7284, the last one to have it,
// so that the reference's outputs outlive the reference: a moved digest is a
// moved virtual timeline or a changed result.
var pinnedExchangeOutputs = map[string]string{
	"TestExchangeDeterminism/heat/basic/procs=2":         "f272e476b67da65086981c77036017f9a7d74b131fbe69633c50a8a792a1d8ba",
	"TestExchangeDeterminism/heat/basic/procs=4":         "5d93354efc061ae1a9dabfeb10b12aeb6e6a43517d805fec05999a463b8ae5f0",
	"TestExchangeDeterminism/heat/basic/procs=8":         "914a5a348e7e54554a88e25d5ca9f7dee907784e861e2e16709eacac634c50ff",
	"TestExchangeDeterminism/heat/overlap/procs=2":       "210795ef689f00f736401ab9258cfbb07d8de07b59bb5dff939eb0314867874d",
	"TestExchangeDeterminism/heat/overlap/procs=4":       "46ea9d2d66c66f632cfa39361c6599529b8cf90770e5e4e98ac693cd8bdc7228",
	"TestExchangeDeterminism/heat/overlap/procs=8":       "0bdec5cdfd0d656f046ba0c73fa75f4836eab6fa6c4f15fc7ad82f95d45a3c6b",
	"TestExchangeDeterminism/quickstart/basic/procs=2":   "6907a7f16efe10f3ef2fbbd6347be42f29d6ce3d1428dba14e8c3195f4a8ee16",
	"TestExchangeDeterminism/quickstart/basic/procs=4":   "81b0a717f296113a4c2e5e1f1063d59b799cbb84177559198396874c64228655",
	"TestExchangeDeterminism/quickstart/basic/procs=8":   "6f6469f87ec7b639b7d8964b2344708109329848ca189bdf0ade8d60208facca",
	"TestExchangeDeterminism/quickstart/overlap/procs=2": "b062e64b1c502ec6a27d01ced5ec4eab1c8967d6669ea2c437f6d3a68c5313c3",
	"TestExchangeDeterminism/quickstart/overlap/procs=4": "55aca5c10e3e7f9e5d2d77e9b67d6c937f68c3a4f95bea8d1ebff8604f242256",
	"TestExchangeDeterminism/quickstart/overlap/procs=8": "261cc3578c02605a11938b6e96d4fb234bc3c34f43bc66fa9579642583c392bb",
	"TestExchangeDeterminism/dynamic/basic/procs=2":      "46e47f67d589477a3b8a8aedce2e9a38cc217cd3a77d4835d39573bfe59c5a23",
	"TestExchangeDeterminism/dynamic/basic/procs=4":      "233e76b267224cd5efbfdb4a84019be31d48bfe400020a78ae7391b59de7785b",
	"TestExchangeDeterminism/dynamic/basic/procs=8":      "b2167a867e4fa426765fbf02d656369b8f80e870d03ccd17b47cef208370bb31",
	"TestExchangeDeterminism/dynamic/overlap/procs=2":    "4b8afcc389627bad84939b0c6f0b8e38b9dfced10107e7e06ff7732c0e08ee0d",
	"TestExchangeDeterminism/dynamic/overlap/procs=4":    "2eb3164ea8097c813eb56f8eb21450036d04a37837c0736e5f2fc604424a9c3d",
	"TestExchangeDeterminism/dynamic/overlap/procs=8":    "56786efd359ee9258e117a04e1dad05ae064bf22287e385bd7f79d0e3d183fa7",
	"TestExchangeDeterminismNetworks/uniform/procs=4":    "5d93354efc061ae1a9dabfeb10b12aeb6e6a43517d805fec05999a463b8ae5f0",
	"TestExchangeDeterminismNetworks/uniform/procs=8":    "914a5a348e7e54554a88e25d5ca9f7dee907784e861e2e16709eacac634c50ff",
	"TestExchangeDeterminismNetworks/hypercube/procs=4":  "85ecdc854450966c1c01d27792a79e050351b28bdc7592fb04e34f53ac3bf0fa",
	"TestExchangeDeterminismNetworks/hypercube/procs=8":  "03d81d6b45255890bf0ebf110935274b90d85f266d6f2354abd99c7ed88185e0",
	"TestExchangeDeterminismNetworks/mesh2d/procs=4":     "85ecdc854450966c1c01d27792a79e050351b28bdc7592fb04e34f53ac3bf0fa",
	"TestExchangeDeterminismNetworks/mesh2d/procs=8":     "f7802bfb3c2cb61915c6c09a936953603971463d1d2c870e138803d608243c82",
	"TestExchangeDeterminismNetworks/fattree/procs=4":    "5d93354efc061ae1a9dabfeb10b12aeb6e6a43517d805fec05999a463b8ae5f0",
	"TestExchangeDeterminismNetworks/fattree/procs=8":    "cc19ea67c8105b6da61ea4ff97e09c8b3cd51af89586621e1b0f9b285b7eb30d",
	"TestExchangeDeterminismNetworks/hetgrid/procs=4":    "ff19dcdd146462b1dc6d75a95aceec4194d3249ff81f50dc3d968da22b1c9bac",
	"TestExchangeDeterminismNetworks/hetgrid/procs=8":    "b9c2ec4dcac10c5639eb2671656e65be541ff3bf8310a1b158a2d10e78c9ecab",
	"TestExchangeDeterminismPerturbed/brownout/procs=4":  "48168dcf26be64d02ac1788e96f5c94f187203fe2c201843eaa6497f3eff4159",
	"TestExchangeDeterminismPerturbed/brownout/procs=8":  "05ad77787e5a8020fca9b155c01f8cc847949b4e1eb7d877b6e49fde777881e7",
	"TestExchangeDeterminismPerturbed/links/procs=4":     "cc413e948743ef92c98f10c5e50c86b316dc3213ba28808ed71f8fbc6d055517",
	"TestExchangeDeterminismPerturbed/links/procs=8":     "282214a988f32a19612c4d4e884d82cd41d6d6f26c1c38af87ed6d7dbeb0c80a",
	"TestExchangeDeterminismPerturbed/ramp/procs=4":      "3fbe2c6b8b043a2eafa6026eb31a036ffdba3ccd2589692587a8fe89fb6c9877",
	"TestExchangeDeterminismPerturbed/ramp/procs=8":      "9b9cd84859083869bfbf9b60e06f269810feff82b66c55db624d06bcc3f0b8ca",
	"TestExchangeDeterminismPerturbed/chaos/procs=4":     "c5ab834b03e5841d0a418e8bcd8be3190c526f6fcc30bcf7328921fa81093e95",
	"TestExchangeDeterminismPerturbed/chaos/procs=8":     "1ffa4c6c4778332664b949c4295ffddf60c6290ff35e57ff6062f96dd9e36748",
	"TestExchangeDeterminismSubPhases/procs=2":           "632ab86264e939544e27f98ef9edcdda4b668f5ace941d578dfdc6dd7210b192",
	"TestExchangeDeterminismSubPhases/procs=4":           "3bb2968f31f8832f12799b428c589899c716b6bd7b886ce05dcc92a55886184b",
	"TestExchangeDeterminismSubPhases/procs=8":           "f5a9ffe49f6e6c7c9b1fea1fae1cb265e11aba5036583de0f374f658a119ec24",
}
