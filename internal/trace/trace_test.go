package trace

import (
	"bytes"
	"strings"
	"testing"
)

// fill populates a 2-proc, 2-iter recorder with known values.
func fill(r *Recorder) {
	r.Start(2, 2)
	r.RecordSample(Sample{Iter: 1, Proc: 0, ComputeS: 3, CommS: 0.5, MsgsSent: 2, BytesSent: 64})
	r.RecordSample(Sample{Iter: 1, Proc: 1, ComputeS: 1, IdleS: 2, MsgsRecv: 2, BytesRecv: 64})
	r.RecordSample(Sample{Iter: 2, Proc: 0, ComputeS: 2})
	r.RecordSample(Sample{Iter: 2, Proc: 1, ComputeS: 2})
	r.RecordMigration(Migration{Iter: 1, Node: 7, From: 0, To: 1, BenefitS: 0.25})
	r.RecordEdgeCut(1, 12)
	r.RecordEdgeCut(2, 10)
	r.Finish()
}

func TestRecorderDerivedSeries(t *testing.T) {
	var r Recorder
	fill(&r)
	series := r.Series()
	if len(series) != 2 {
		t.Fatalf("series length %d, want 2", len(series))
	}
	// Iteration 1: compute 3 and 1 -> max/mean = 3/2.
	if got, want := series[0].Imbalance, 1.5; got != want {
		t.Errorf("iter 1 imbalance %v, want %v", got, want)
	}
	if series[0].EdgeCut != 12 || series[1].EdgeCut != 10 {
		t.Errorf("edge cuts %d, %d, want 12, 10", series[0].EdgeCut, series[1].EdgeCut)
	}
	// Iteration 2: perfectly balanced.
	if got, want := series[1].Imbalance, 1.0; got != want {
		t.Errorf("iter 2 imbalance %v, want %v", got, want)
	}
}

func TestRecorderStartResets(t *testing.T) {
	var r Recorder
	fill(&r)
	r.Start(2, 2)
	if n := len(r.Migrations()); n != 0 {
		t.Errorf("migrations survived Start: %d", n)
	}
	for _, s := range r.Samples() {
		if s != (Sample{}) {
			t.Errorf("sample survived Start: %+v", s)
		}
	}
	for i, d := range r.Series() {
		if d.EdgeCut != -1 || d.Imbalance != 0 {
			t.Errorf("series[%d] survived Start: %+v", i, d)
		}
	}
}

func TestWriteJSONLShape(t *testing.T) {
	var r Recorder
	fill(&r)
	var buf bytes.Buffer
	if err := Write(&buf, "jsonl", &r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// 2 samples + 1 migration + 1 series for iter 1; 2 samples + 1 series
	// for iter 2.
	want := []string{"sample", "sample", "migration", "series", "sample", "sample", "series"}
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, kind := range want {
		if !strings.HasPrefix(lines[i], `{"kind":"`+kind+`"`) {
			t.Errorf("line %d = %s, want kind %q", i, lines[i], kind)
		}
	}
}

func TestWriteCSVShape(t *testing.T) {
	var r Recorder
	fill(&r)
	var buf bytes.Buffer
	if err := Write(&buf, "csv", &r); err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n\n")
	if len(blocks) != 3 {
		t.Fatalf("%d blocks, want 3 (samples, migrations, series):\n%s", len(blocks), buf.String())
	}
	if !strings.HasPrefix(blocks[0], "iter,proc,compute_s") {
		t.Errorf("samples block header: %s", strings.SplitN(blocks[0], "\n", 2)[0])
	}
	if !strings.HasPrefix(blocks[1], "iter,node,from,to,benefit_s") {
		t.Errorf("migrations block header: %s", strings.SplitN(blocks[1], "\n", 2)[0])
	}
	if !strings.HasPrefix(blocks[2], "iter,imbalance,edge_cut") {
		t.Errorf("series block header: %s", strings.SplitN(blocks[2], "\n", 2)[0])
	}
}

func TestWriteUnknownFormat(t *testing.T) {
	var r Recorder
	r.Start(1, 1)
	if err := Write(&bytes.Buffer{}, "xml", &r); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestRestoreRefusesMigrationsOutOfOrder: the encoders walk migrations in
// iteration order, so a snapshot whose migrations run backwards would
// silently lose the lines after the first step back.
func TestRestoreRefusesMigrationsOutOfOrder(t *testing.T) {
	var r Recorder
	r.Start(1, 2)
	samples := []Sample{{Iter: 1}, {Iter: 2}}
	if err := r.Restore(2, samples, []Migration{{Iter: 2}, {Iter: 1}}, []int{0, 0}); err == nil {
		t.Fatal("Restore accepted migrations out of iteration order")
	}
	if err := r.Restore(2, samples, []Migration{{Iter: 1}, {Iter: 2}, {Iter: 2}}, []int{0, 0}); err != nil {
		t.Fatalf("Restore refused migrations in order: %v", err)
	}
}
