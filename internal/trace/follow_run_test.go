package trace_test

import (
	"bytes"
	"testing"

	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/trace"
)

// TestFollowRunMatchesWriteJSONL follows real runs of the imbalance
// scenario, whose balancer migrates work, at 16 processors: on one, two
// and four kernel workers the ranks record concurrently, and the lines
// the recorder released live must be exactly WriteJSONL's bytes. A
// followed run resumed from a mid-run snapshot must stream the
// uninterrupted run's lines, the restored iterations included.
func TestFollowRunMatchesWriteJSONL(t *testing.T) {
	sc, err := scenario.Get("imbalance")
	if err != nil {
		t.Fatal(err)
	}
	// run follows one run and returns the streamed and the written trace.
	run := func(p scenario.Params) (streamed, written []byte) {
		var live bytes.Buffer
		rec := &trace.Recorder{}
		rec.Follow(func(kind string, line []byte) {
			if !bytes.HasPrefix(line, []byte(`{"kind":"`+kind+`"`)) {
				t.Errorf("line %s released as kind %q", line, kind)
			}
			live.Write(line)
			live.WriteByte('\n')
		})
		p.Procs, p.Trace = 16, rec
		if _, err := sc.Run(p); err != nil {
			t.Fatal(err)
		}
		var w bytes.Buffer
		if err := trace.WriteJSONL(&w, rec); err != nil {
			t.Fatal(err)
		}
		return live.Bytes(), w.Bytes()
	}

	var want []byte
	for _, workers := range []int{1, 2, 4} {
		streamed, written := run(scenario.Params{Host: platform.Host{KernelWorkers: workers}})
		if !bytes.Contains(written, []byte(`"kind":"migration"`)) {
			t.Fatal("the run migrated nothing; the test no longer covers migration lines")
		}
		if !bytes.Equal(streamed, written) {
			t.Errorf("workers=%d: streamed lines differ from WriteJSONL", workers)
		}
		if want == nil {
			want = written
		} else if !bytes.Equal(written, want) {
			t.Errorf("workers=%d: trace differs from one worker's", workers)
		}
	}

	// Cut after iteration 10: migrations lie on both sides of the cut.
	const cut = 10
	var snap *platform.RunSnapshot
	run(scenario.Params{Host: platform.Host{KernelWorkers: 4, CheckpointEvery: cut, CheckpointSink: func(s *platform.RunSnapshot) error {
		if s.Iter == cut {
			snap = s
		}
		return nil
	}}})
	if snap == nil || len(snap.TraceMigrations) == 0 {
		t.Fatalf("no snapshot with migrations at iteration %d", cut)
	}
	if streamed, _ := run(scenario.Params{Host: platform.Host{KernelWorkers: 4, ResumeFrom: snap}}); !bytes.Equal(streamed, want) {
		t.Errorf("resumed run streamed other lines than the uninterrupted run\ngot %d bytes, want %d", len(streamed), len(want))
	}
}
