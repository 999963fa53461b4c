package node

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// TestRunGoldenBitIdentical pins the full Result of fixed-seed fabric
// clusters: three protocols × three fault mixes × four seeds on a 256-node
// three-colour start. The values were captured from the coordinator-goroutine
// fabric (commit 24719b3, closures on a container/heap). Dispatching on the
// last node to block, over a typed heap that cancels answered timeouts, must
// not change a single bit of any of them: it keeps the event order, the seq
// tiebreak and the order of fault-stream draws, and a cancelled timeout was a
// no-op when it fired.
//
// The default pull timeout of 8 never lets a reply arrive late, so the last
// rows shorten it to 0.5 against Latency 0.25 each way: about two fifths of
// their replies land after their pull gave up and must change nothing
// (Responses counts only the others).
func TestRunGoldenBitIdentical(t *testing.T) {
	var (
		lossless = Faults{}
		lossy    = Faults{Latency: 0.25, Drop: 0.01}
		reorder  = Faults{Latency: 0.1, Drop: 0.05, Reorder: 0.2}
	)
	cases := []struct {
		spec    string
		faults  Faults
		timeout float64 // 0: DefaultPullTimeout
		seed    uint64
		want    Result
	}{
		{"two-choices", lossless, 0, 1, Result{Done: true, Winner: 0, ConsensusTime: 8.271731143592739, Time: 74.3422873429698, Ticks: 14995, Undecided: 0, Halted: 256, Decided: 256, Messages: 29990, Responses: 29990, Dropped: 0}},
		{"two-choices", lossless, 0, 2, Result{Done: true, Winner: 0, ConsensusTime: 9.134213982647434, Time: 74.8406487781187, Ticks: 15078, Undecided: 0, Halted: 256, Decided: 256, Messages: 30156, Responses: 30156, Dropped: 0}},
		{"two-choices", lossless, 0, 3, Result{Done: true, Winner: 0, ConsensusTime: 9.247597927505883, Time: 72.87257973966936, Ticks: 15039, Undecided: 0, Halted: 256, Decided: 256, Messages: 30078, Responses: 30078, Dropped: 0}},
		{"two-choices", lossless, 0, 4, Result{Done: true, Winner: 0, ConsensusTime: 8.658426412243728, Time: 70.23075207568999, Ticks: 14829, Undecided: 0, Halted: 256, Decided: 256, Messages: 29658, Responses: 29658, Dropped: 0}},
		{"two-choices", lossy, 0, 1, Result{Done: true, Winner: 0, ConsensusTime: 17.201622813707427, Time: 157.6841677531816, Ticks: 15752, Undecided: 0, Halted: 256, Decided: 256, Messages: 31504, Responses: 30856, Dropped: 648}},
		{"two-choices", lossy, 0, 2, Result{Done: true, Winner: 0, ConsensusTime: 16.335410220311626, Time: 146.05825830678305, Ticks: 15423, Undecided: 0, Halted: 256, Decided: 256, Messages: 30846, Responses: 30279, Dropped: 567}},
		{"two-choices", lossy, 0, 3, Result{Done: true, Winner: 0, ConsensusTime: 24.003875785074733, Time: 149.0912201921551, Ticks: 16228, Undecided: 0, Halted: 256, Decided: 256, Messages: 32456, Responses: 31851, Dropped: 605}},
		{"two-choices", lossy, 0, 4, Result{Done: true, Winner: 0, ConsensusTime: 26.7560004048998, Time: 154.83952302401974, Ticks: 15866, Undecided: 0, Halted: 256, Decided: 256, Messages: 31732, Responses: 31069, Dropped: 663}},
		{"two-choices", reorder, 0, 1, Result{Done: true, Winner: 0, ConsensusTime: 56.17798647522887, Time: 305.68843269685607, Ticks: 20201, Undecided: 0, Halted: 256, Decided: 256, Messages: 40402, Responses: 36474, Dropped: 3928}},
		{"two-choices", reorder, 0, 2, Result{Done: true, Winner: 0, ConsensusTime: 42.00517259964216, Time: 299.78160846056835, Ticks: 20862, Undecided: 0, Halted: 256, Decided: 256, Messages: 41724, Responses: 37686, Dropped: 4038}},
		{"two-choices", reorder, 0, 3, Result{Done: true, Winner: 0, ConsensusTime: 29.63174502144855, Time: 296.1203647653587, Ticks: 20369, Undecided: 0, Halted: 256, Decided: 256, Messages: 40738, Responses: 36820, Dropped: 3918}},
		{"two-choices", reorder, 0, 4, Result{Done: true, Winner: 0, ConsensusTime: 29.680396469518907, Time: 294.17438332753187, Ticks: 19943, Undecided: 0, Halted: 256, Decided: 256, Messages: 39886, Responses: 36091, Dropped: 3795}},
		{"usd", lossless, 0, 1, Result{Done: true, Winner: 0, ConsensusTime: 18.225292600126508, Time: 74.70173218902303, Ticks: 15310, Undecided: 0, Halted: 256, Decided: 256, Messages: 15310, Responses: 15310, Dropped: 0}},
		{"usd", lossless, 0, 2, Result{Done: true, Winner: 0, ConsensusTime: 13.385804503625513, Time: 78.55004695659257, Ticks: 15027, Undecided: 0, Halted: 256, Decided: 256, Messages: 15027, Responses: 15027, Dropped: 0}},
		{"usd", lossless, 0, 3, Result{Done: true, Winner: 0, ConsensusTime: 12.454795475030465, Time: 72.50817992564366, Ticks: 14481, Undecided: 0, Halted: 256, Decided: 256, Messages: 14481, Responses: 14481, Dropped: 0}},
		{"usd", lossless, 0, 4, Result{Done: true, Winner: 0, ConsensusTime: 12.56662247159241, Time: 72.03263461029985, Ticks: 14776, Undecided: 0, Halted: 256, Decided: 256, Messages: 14776, Responses: 14776, Dropped: 0}},
		{"usd", lossy, 0, 1, Result{Done: true, Winner: 0, ConsensusTime: 31.131572806193006, Time: 129.48768698715753, Ticks: 15874, Undecided: 0, Halted: 256, Decided: 256, Messages: 15874, Responses: 15541, Dropped: 333}},
		{"usd", lossy, 0, 2, Result{Done: true, Winner: 0, ConsensusTime: 26.93298617792737, Time: 130.50656777416955, Ticks: 15590, Undecided: 0, Halted: 256, Decided: 256, Messages: 15590, Responses: 15298, Dropped: 292}},
		{"usd", lossy, 0, 3, Result{Done: true, Winner: 0, ConsensusTime: 27.084993551228376, Time: 124.70404921430621, Ticks: 14961, Undecided: 0, Halted: 256, Decided: 256, Messages: 14961, Responses: 14686, Dropped: 275}},
		{"usd", lossy, 0, 4, Result{Done: true, Winner: 0, ConsensusTime: 18.76468348696323, Time: 124.16851944873315, Ticks: 15341, Undecided: 0, Halted: 256, Decided: 256, Messages: 15341, Responses: 15033, Dropped: 308}},
		{"usd", reorder, 0, 1, Result{Done: true, Winner: 0, ConsensusTime: 46.179715191082785, Time: 193.81629891717773, Ticks: 18532, Undecided: 0, Halted: 256, Decided: 256, Messages: 18532, Responses: 16721, Dropped: 1811}},
		{"usd", reorder, 0, 2, Result{Done: true, Winner: 0, ConsensusTime: 36.38915227153053, Time: 188.94704768097927, Ticks: 18443, Undecided: 0, Halted: 256, Decided: 256, Messages: 18443, Responses: 16654, Dropped: 1789}},
		{"usd", reorder, 0, 3, Result{Done: true, Winner: 0, ConsensusTime: 40.18071665060101, Time: 200.1809935837799, Ticks: 18252, Undecided: 0, Halted: 256, Decided: 256, Messages: 18252, Responses: 16484, Dropped: 1768}},
		{"usd", reorder, 0, 4, Result{Done: true, Winner: 0, ConsensusTime: 39.04983720867664, Time: 188.0105344984182, Ticks: 18416, Undecided: 0, Halted: 256, Decided: 256, Messages: 18416, Responses: 16612, Dropped: 1804}},
		{"3-majority", lossless, 0, 1, Result{Done: true, Winner: 0, ConsensusTime: 7.183027282239413, Time: 73.39792125957915, Ticks: 15149, Undecided: 0, Halted: 256, Decided: 256, Messages: 45447, Responses: 45447, Dropped: 0}},
		{"3-majority", lossless, 0, 2, Result{Done: true, Winner: 0, ConsensusTime: 8.884070366536161, Time: 76.48035754473217, Ticks: 15517, Undecided: 0, Halted: 256, Decided: 256, Messages: 46551, Responses: 46551, Dropped: 0}},
		{"3-majority", lossless, 0, 3, Result{Done: true, Winner: 0, ConsensusTime: 7.6988553912027395, Time: 72.16216520562519, Ticks: 14866, Undecided: 0, Halted: 256, Decided: 256, Messages: 44598, Responses: 44598, Dropped: 0}},
		{"3-majority", lossless, 0, 4, Result{Done: true, Winner: 0, ConsensusTime: 10.213584568003954, Time: 72.06016725200153, Ticks: 15485, Undecided: 0, Halted: 256, Decided: 256, Messages: 46455, Responses: 46455, Dropped: 0}},
		{"3-majority", lossy, 0, 1, Result{Done: true, Winner: 0, ConsensusTime: 29.515540163078956, Time: 181.8006767653594, Ticks: 17543, Undecided: 0, Halted: 256, Decided: 256, Messages: 52629, Responses: 51575, Dropped: 1054}},
		{"3-majority", lossy, 0, 2, Result{Done: true, Winner: 0, ConsensusTime: 22.187563454234038, Time: 183.2988036241922, Ticks: 17041, Undecided: 0, Halted: 256, Decided: 256, Messages: 51123, Responses: 50154, Dropped: 969}},
		{"3-majority", lossy, 0, 3, Result{Done: true, Winner: 0, ConsensusTime: 21.153689163585465, Time: 181.5933841916492, Ticks: 16408, Undecided: 0, Halted: 256, Decided: 256, Messages: 49224, Responses: 48280, Dropped: 944}},
		{"3-majority", lossy, 0, 4, Result{Done: true, Winner: 0, ConsensusTime: 25.98921897737225, Time: 178.12925776917314, Ticks: 16790, Undecided: 0, Halted: 256, Decided: 256, Messages: 50370, Responses: 49366, Dropped: 1004}},
		{"3-majority", reorder, 0, 1, Result{Done: true, Winner: 0, ConsensusTime: 57.99529613309724, Time: 411.61051689841946, Ticks: 24014, Undecided: 0, Halted: 256, Decided: 256, Messages: 72042, Responses: 65039, Dropped: 7003}},
		{"3-majority", reorder, 0, 2, Result{Done: true, Winner: 0, ConsensusTime: 54.752909760028516, Time: 378.00250613418905, Ticks: 23230, Undecided: 0, Halted: 256, Decided: 256, Messages: 69690, Responses: 62979, Dropped: 6711}},
		{"3-majority", reorder, 0, 3, Result{Done: true, Winner: 0, ConsensusTime: 45.628641642035944, Time: 386.7619824244372, Ticks: 22595, Undecided: 0, Halted: 256, Decided: 256, Messages: 67785, Responses: 61338, Dropped: 6447}},
		{"3-majority", reorder, 0, 4, Result{Done: true, Winner: 0, ConsensusTime: 33.66120510531007, Time: 386.82439821029067, Ticks: 22111, Undecided: 0, Halted: 256, Decided: 256, Messages: 66333, Responses: 59986, Dropped: 6347}},
		{"two-choices", lossy, 0.5, 1, Result{Done: true, Winner: 0, ConsensusTime: 33.826877026946924, Time: 325.8084794058535, Ticks: 43308, Undecided: 0, Halted: 256, Decided: 256, Messages: 86616, Responses: 50364, Dropped: 1706}},
		{"two-choices", lossy, 0.5, 2, Result{Done: true, Winner: 0, ConsensusTime: 35.92151089850755, Time: 301.68991935200245, Ticks: 43612, Undecided: 0, Halted: 256, Decided: 256, Messages: 87224, Responses: 50885, Dropped: 1684}},
		{"3-majority", lossy, 0.5, 1, Result{Done: true, Winner: 0, ConsensusTime: 61.23687433720392, Time: 531.1701976666726, Ticks: 75712, Undecided: 0, Halted: 256, Decided: 256, Messages: 227136, Responses: 132064, Dropped: 4581}},
		{"3-majority", lossy, 0.5, 2, Result{Done: true, Winner: 0, ConsensusTime: 60.099619078520874, Time: 539.036030726302, Ticks: 77182, Undecided: 0, Halted: 256, Decided: 256, Messages: 231546, Responses: 134820, Dropped: 4413}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/%+v/seed=%d", tc.spec, tc.faults, tc.seed)
		if tc.timeout > 0 {
			name += fmt.Sprintf("/timeout=%g", tc.timeout)
		}
		t.Run(name, func(t *testing.T) {
			got, err := Run(context.Background(), ClusterConfig{
				Rule:    lookupRule(t, tc.spec),
				Counts:  []int64{120, 70, 66},
				Seed:    tc.seed,
				Timeout: tc.timeout,
				Network: NewFabric(256, tc.seed, tc.faults),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, tc.want) {
				t.Fatalf("result drifted from the captured fabric:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

// sameResult compares every field, the floats bit for bit.
func sameResult(a, b Result) bool {
	fa, fb := a, b
	fa.ConsensusTime, fa.Time, fb.ConsensusTime, fb.Time = 0, 0, 0, 0
	return fa == fb &&
		math.Float64bits(a.ConsensusTime) == math.Float64bits(b.ConsensusTime) &&
		math.Float64bits(a.Time) == math.Float64bits(b.Time)
}
