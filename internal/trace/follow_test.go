package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestFollowWatermark records a 2-proc, 3-iter run in an adversarial
// order — rank 1 races ahead, rank 0 lags, a migration arrives before the
// iteration before it is complete — and asserts the recorder still
// releases iterations in canonical order, holding each until rank 0 has
// provably moved past it. The expected bytes are marshalled here line by
// line, with the imbalance ratios worked out by hand, so they do not come
// from the encoder under test.
func TestFollowWatermark(t *testing.T) {
	var got bytes.Buffer
	lines := 0
	var r Recorder
	r.Follow(func(kind string, line []byte) {
		var k struct{ Kind string }
		if err := json.Unmarshal(line, &k); err != nil || k.Kind != kind {
			t.Errorf("line %q released as kind %q", line, kind)
		}
		got.Write(line)
		got.WriteByte('\n')
		lines++
	})
	r.Start(2, 3)
	sample := func(iter, proc int) Sample {
		return Sample{Iter: iter, Proc: proc, ComputeS: float64(iter*10 + proc)}
	}
	mig := Migration{Iter: 2, Node: 7, From: 1, To: 0, BenefitS: 0.5}

	r.RecordSample(sample(1, 1))
	r.RecordSample(sample(2, 1)) // rank 1 two iterations ahead
	if lines != 0 {
		t.Fatalf("released %d lines before iteration 1 was complete", lines)
	}
	r.RecordMigration(mig)
	r.RecordSample(sample(1, 0))
	// Iteration 1's row is complete, but rank 0 has not sampled iteration
	// 2 yet: its edge cut for 1 may still be pending.
	if lines != 0 {
		t.Fatalf("released %d lines before rank 0 passed iteration 1", lines)
	}
	r.RecordEdgeCut(1, 11)
	r.RecordSample(sample(2, 0)) // rank 0 past iteration 1: release it
	if lines != 3 {              // 2 samples + series
		t.Fatalf("after rank 0 passed iter 1: %d lines, want 3", lines)
	}
	r.RecordEdgeCut(2, 12)
	r.RecordSample(sample(3, 0))
	r.RecordSample(sample(3, 1))
	// Iteration 2 released (rank 0 is on 3); iteration 3 waits for Finish.
	if lines != 7 { // + 2 samples, 1 migration, 1 series
		t.Fatalf("before Finish: %d lines, want 7", lines)
	}
	r.RecordEdgeCut(3, 13)
	r.Finish()
	if lines != 10 {
		t.Fatalf("after Finish: %d lines, want 10", lines)
	}

	var want bytes.Buffer
	put := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(b)
		want.WriteByte('\n')
	}
	imbalance := []float64{11 * 2 / 21.0, 21 * 2 / 41.0, 31 * 2 / 61.0} // max * procs / sum
	for it := 1; it <= 3; it++ {
		put(sampleLine{Kind: "sample", Sample: sample(it, 0)})
		put(sampleLine{Kind: "sample", Sample: sample(it, 1)})
		if it == 2 {
			put(migrationLine{Kind: "migration", Migration: mig})
		}
		put(seriesLine{Kind: "series", Derived: Derived{Iter: it, Imbalance: imbalance[it-1], EdgeCut: 10 + it}})
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("released lines differ from the canonical encoding\ngot:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}
