package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/trace"
)

// TestHostNeverReachesKeysOrReports holds every field of platform.Host to
// what makes it host-only. Set alone on a one-cell heat sweep, each field's
// value leaves the cell's CellKey as it was, reaches platform.Config.Host
// through Scenario.Config, and leaves the sweep's JSON and CSV report bytes
// as they were. The table needs a value for every field of the record, so a
// field added to it is covered as soon as it exists. ResumeFrom cannot run
// on its own: its value is a snapshot from a checkpointed run of the cell.
func TestHostNeverReachesKeysOrReports(t *testing.T) {
	sc := mustScenario("heat")
	ax, err := ParseAxes("procs=4;iters=6")
	if err != nil {
		t.Fatal(err)
	}
	cell := ax.Cells()[0]

	var snap *platform.RunSnapshot
	checkpointed := cell
	checkpointed.CheckpointEvery = 3
	checkpointed.CheckpointSink = func(s *platform.RunSnapshot) error {
		snap = s
		return nil
	}
	if _, err := sc.Run(checkpointed); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("the checkpointed run handed over no snapshot")
	}

	values := map[string]any{
		"KernelWorkers":   3,
		"Trace":           &trace.Recorder{},
		"CheckpointEvery": 2,
		"CheckpointSink":  func(*platform.RunSnapshot) error { return nil },
		"ResumeFrom":      snap,
		"Stop":            (<-chan struct{})(make(chan struct{})), // open: a closed one ends the run
	}
	hostType := reflect.TypeFor[platform.Host]()
	for i := range hostType.NumField() {
		if name := hostType.Field(i).Name; values[name] == nil {
			t.Errorf("platform.Host.%s has no value in this test's table", name)
		}
	}
	for name := range values {
		if _, ok := hostType.FieldByName(name); !ok {
			t.Errorf("the table names %s, which platform.Host does not have", name)
		}
	}

	report := func(p scenario.Params) (jsonBytes, csvBytes []byte) {
		t.Helper()
		rep, err := RunSweepWith(sc, ax, func(sc scenario.Scenario, _ int, _ scenario.Params) (*scenario.Result, error) {
			return sc.Run(p)
		})
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := WriteReport(&j, "json", rep); err != nil {
			t.Fatal(err)
		}
		if err := WriteReport(&c, "csv", rep); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes()
	}
	wantKey, err := CellKey(sc, cell)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := report(cell)

	for name, v := range values {
		t.Run(name, func(t *testing.T) {
			p := cell
			reflect.ValueOf(&p.Host).Elem().FieldByName(name).Set(reflect.ValueOf(v))
			if key, err := CellKey(sc, p); err != nil || key != wantKey {
				t.Errorf("CellKey = %q, %v; want %q", key, err, wantKey)
			}
			cfg, err := sc.Config(p)
			if err != nil {
				t.Fatal(err)
			}
			if got := reflect.ValueOf(cfg.Host).FieldByName(name); !sameValue(got, reflect.ValueOf(v)) {
				t.Errorf("platform.Config.Host.%s = %v, want %v", name, got, v)
			}
			if gotJSON, gotCSV := report(p); !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotCSV, wantCSV) {
				t.Errorf("the report changed:\nJSON\n%s\nwant\n%s\nCSV\n%s\nwant\n%s", gotJSON, wantJSON, gotCSV, wantCSV)
			}
		})
	}
}

// sameValue reports whether got holds want: the same function or pointer,
// or an equal value.
func sameValue(got, want reflect.Value) bool {
	switch got.Kind() {
	case reflect.Func, reflect.Pointer:
		return got.Pointer() == want.Pointer()
	}
	return got.Interface() == want.Interface()
}
