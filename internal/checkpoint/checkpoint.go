// Package checkpoint serializes platform run snapshots into a versioned,
// stable encoding. A snapshot captured at an iteration boundary (see
// platform.RunSnapshot) round-trips through Encode/Decode bit-exactly —
// floats use Go's shortest round-trip JSON representation — so a run
// resumed from a decoded snapshot is byte-identical to one resumed from
// the in-memory snapshot, which in turn is byte-identical to the
// uninterrupted run.
//
// The node data types a snapshot can carry are a closed set this package
// owns: the platform's IntData, the heat scenario's Temp and the
// battlefield's HexData, each under a stable tag (see encodeData). Decoding
// is strict — wrong version, unknown fields, unknown data types, impossible
// values, truncated or structurally inconsistent input all error, never
// panic and never silently resume a wrong run.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"

	"ic2mpi/internal/battlefield"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/trace"
)

// Version identifies the snapshot format. Any incompatible change to the
// encoding must bump it; Decode rejects every version it does not know.
const Version = "ic2mpi.snapshot.v1"

// Meta carries run identity alongside the state. CellKey is the full
// deterministic spec key of the run (experiments.CellKey); resuming
// callers compare it against the key of the run they are about to restore
// so a snapshot can never be replayed into a different configuration.
type Meta struct {
	CellKey string `json:"cell_key"`
}

// The wire format. Field order is fixed by these structs, so Encode is
// byte-stable for a given snapshot.

type fileJSON struct {
	Version    string     `json:"version"`
	Meta       Meta       `json:"meta"`
	Iter       int        `json:"iter"`
	Procs      int        `json:"procs"`
	Iterations int        `json:"iterations"`
	Owner      []int      `json:"owner"`
	Ranks      []rankJSON `json:"ranks"`
	HasTrace   bool       `json:"has_trace"`
	// The trace fields are present exactly when HasTrace is set.
	TraceSamples    []sampleJSON      `json:"trace_samples,omitempty"`
	TraceMigrations []trace.Migration `json:"trace_migrations,omitempty"`
	TraceEdgeCuts   []int             `json:"trace_edge_cuts,omitempty"`
}

type rankJSON struct {
	Rank       int        `json:"rank"`
	Clock      float64    `json:"clock_s"`
	Start      float64    `json:"start_s"`
	Stats      statsJSON  `json:"stats"`
	Phase      []float64  `json:"phase_s"`
	WorkTime   float64    `json:"work_time_s"`
	Migrations int        `json:"migrations"`
	Nodes      []nodeJSON `json:"nodes"`
	// History carries rank 0's balancing-history window for history-aware
	// balancers; omitted when empty, so snapshots of runs with the classic
	// balancers are byte-identical to the pre-history format.
	History []histJSON `json:"history,omitempty"`
}

type histJSON struct {
	Iter      int       `json:"iter"`
	Times     []float64 `json:"times_s"`
	Speeds    []float64 `json:"speeds"`
	Imbalance float64   `json:"imbalance"`
}

type statsJSON struct {
	MsgsSent  int     `json:"msgs_sent"`
	MsgsRecv  int     `json:"msgs_recv"`
	BytesSent int     `json:"bytes_sent"`
	BytesRecv int     `json:"bytes_recv"`
	IdleS     float64 `json:"idle_s"`
}

type nodeJSON struct {
	ID       int             `json:"id"`
	Owned    bool            `json:"owned,omitempty"`
	LastCost float64         `json:"last_cost,omitempty"`
	Type     string          `json:"t"`
	Value    json.RawMessage `json:"v"`
}

// sampleJSON re-exposes trace.Sample's host-side WallS field (excluded
// from trace encodings) so a restored recorder carries the exact clock
// values the invariant harness checks.
type sampleJSON struct {
	trace.Sample
	WallS float64 `json:"wall_s"`
}

// Encode serializes snap with its identity meta into the versioned
// stable format. Identical snapshots always encode to identical bytes.
func Encode(meta Meta, snap *platform.RunSnapshot) ([]byte, error) {
	if snap == nil {
		return nil, fmt.Errorf("checkpoint: nil snapshot")
	}
	f := fileJSON{
		Version:    Version,
		Meta:       meta,
		Iter:       snap.Iter,
		Procs:      snap.Procs,
		Iterations: snap.Iterations,
		Owner:      snap.Owner,
		Ranks:      make([]rankJSON, len(snap.Ranks)),
		HasTrace:   snap.HasTrace,
	}
	for i, rs := range snap.Ranks {
		rj := rankJSON{
			Rank:       rs.Rank,
			Clock:      rs.Clock,
			Start:      rs.Start,
			Stats:      statsJSON{rs.Stats.MessagesSent, rs.Stats.MessagesReceived, rs.Stats.BytesSent, rs.Stats.BytesReceived, rs.Stats.IdleSeconds},
			Phase:      append([]float64(nil), rs.Phase[:]...),
			WorkTime:   rs.WorkTime,
			Migrations: rs.Migrations,
			Nodes:      make([]nodeJSON, len(rs.Nodes)),
		}
		for j, ns := range rs.Nodes {
			if ns.Data == nil {
				return nil, fmt.Errorf("checkpoint: rank %d node %d has nil data", rs.Rank, ns.ID)
			}
			tag, raw, err := encodeData(ns.Data)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: encoding node %d: %w", ns.ID, err)
			}
			rj.Nodes[j] = nodeJSON{ID: int(ns.ID), Owned: ns.Owned, LastCost: ns.LastCost, Type: tag, Value: raw}
		}
		if len(rs.History) > 0 {
			rj.History = make([]histJSON, len(rs.History))
			for j, h := range rs.History {
				rj.History[j] = histJSON{Iter: h.Iter, Times: h.Times, Speeds: h.Speeds, Imbalance: h.Imbalance}
			}
		}
		f.Ranks[i] = rj
	}
	if snap.HasTrace {
		f.TraceSamples = make([]sampleJSON, len(snap.TraceSamples))
		for i, s := range snap.TraceSamples {
			f.TraceSamples[i] = sampleJSON{Sample: s, WallS: s.WallS}
		}
		f.TraceMigrations = snap.TraceMigrations
		f.TraceEdgeCuts = snap.TraceEdgeCuts
	}
	return json.Marshal(f)
}

// Decode parses data, verifies the format version, and reconstructs the
// snapshot. It is strict: unknown fields, unknown node data types, or any
// structural inconsistency (lengths, labels, ordering) is an error.
// Deeper semantic validation against the run configuration happens in
// platform.Run when the snapshot is used.
func Decode(data []byte) (Meta, *platform.RunSnapshot, error) {
	var probe struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return Meta{}, nil, fmt.Errorf("checkpoint: not a snapshot: %w", err)
	}
	if probe.Version != Version {
		return Meta{}, nil, fmt.Errorf("checkpoint: unsupported snapshot version %q (this build reads %q)", probe.Version, Version)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f fileJSON
	if err := dec.Decode(&f); err != nil {
		return Meta{}, nil, fmt.Errorf("checkpoint: malformed snapshot: %w", err)
	}
	if f.Iter < 1 || f.Procs < 1 || f.Iterations <= f.Iter {
		return Meta{}, nil, fmt.Errorf("checkpoint: inconsistent snapshot header (iter %d, procs %d, iterations %d)", f.Iter, f.Procs, f.Iterations)
	}
	if len(f.Ranks) != f.Procs {
		return Meta{}, nil, fmt.Errorf("checkpoint: %d rank records for %d procs", len(f.Ranks), f.Procs)
	}
	snap := &platform.RunSnapshot{
		Iter:       f.Iter,
		Procs:      f.Procs,
		Iterations: f.Iterations,
		Owner:      f.Owner,
		Ranks:      make([]platform.RankSnap, f.Procs),
		HasTrace:   f.HasTrace,
	}
	for i, rj := range f.Ranks {
		if rj.Rank != i {
			return Meta{}, nil, fmt.Errorf("checkpoint: rank record %d labeled rank %d", i, rj.Rank)
		}
		if len(rj.Phase) != platform.NumPhases {
			return Meta{}, nil, fmt.Errorf("checkpoint: rank %d has %d phase entries, want %d", i, len(rj.Phase), platform.NumPhases)
		}
		rs := platform.RankSnap{
			Rank:       rj.Rank,
			Clock:      rj.Clock,
			Start:      rj.Start,
			Stats:      mpiStats(rj.Stats),
			WorkTime:   rj.WorkTime,
			Migrations: rj.Migrations,
			Nodes:      make([]platform.NodeSnap, len(rj.Nodes)),
		}
		copy(rs.Phase[:], rj.Phase)
		prev := -1
		for j, nj := range rj.Nodes {
			if nj.ID <= prev {
				return Meta{}, nil, fmt.Errorf("checkpoint: rank %d node list not strictly ascending at %d", i, nj.ID)
			}
			prev = nj.ID
			d, err := decodeData(nj.Type, nj.Value)
			if err != nil {
				return Meta{}, nil, fmt.Errorf("checkpoint: decoding node %d (%s): %w", nj.ID, nj.Type, err)
			}
			rs.Nodes[j] = platform.NodeSnap{ID: graph.NodeID(nj.ID), Owned: nj.Owned, LastCost: nj.LastCost, Data: d}
		}
		if len(rj.History) > 0 {
			rs.History = make([]platform.LoadSample, len(rj.History))
			prevIter := 0
			for j, h := range rj.History {
				if h.Iter <= prevIter || h.Iter > f.Iter {
					return Meta{}, nil, fmt.Errorf("checkpoint: rank %d history not ascending within (0,%d]", i, f.Iter)
				}
				prevIter = h.Iter
				if len(h.Times) != f.Procs || len(h.Speeds) != f.Procs {
					return Meta{}, nil, fmt.Errorf("checkpoint: rank %d history sample at iteration %d has %d times and %d speeds for %d procs",
						i, h.Iter, len(h.Times), len(h.Speeds), f.Procs)
				}
				rs.History[j] = platform.LoadSample{Iter: h.Iter, Times: h.Times, Speeds: h.Speeds, Imbalance: h.Imbalance}
			}
		}
		snap.Ranks[i] = rs
	}
	if f.HasTrace {
		if len(f.TraceSamples) != f.Iter*f.Procs {
			return Meta{}, nil, fmt.Errorf("checkpoint: %d trace samples for iter %d x %d procs", len(f.TraceSamples), f.Iter, f.Procs)
		}
		if len(f.TraceEdgeCuts) != f.Iter {
			return Meta{}, nil, fmt.Errorf("checkpoint: %d edge cuts for %d iterations", len(f.TraceEdgeCuts), f.Iter)
		}
		snap.TraceSamples = make([]trace.Sample, len(f.TraceSamples))
		for i, sj := range f.TraceSamples {
			s := sj.Sample
			s.WallS = sj.WallS
			snap.TraceSamples[i] = s
		}
		snap.TraceMigrations = f.TraceMigrations
		snap.TraceEdgeCuts = f.TraceEdgeCuts
	} else if len(f.TraceSamples) != 0 || len(f.TraceMigrations) != 0 || len(f.TraceEdgeCuts) != 0 {
		return Meta{}, nil, fmt.Errorf("checkpoint: trace data present but has_trace unset")
	}
	return f.Meta, snap, nil
}

// encodeData returns d's tag and JSON value. A snapshot encodes the live
// value: a battlefield roster emptied this step stays "Units":[], the
// bytes the battlefield's pinned digests hash.
func encodeData(d platform.NodeData) (string, json.RawMessage, error) {
	var tag string
	var v any
	switch d := d.(type) {
	case platform.IntData:
		tag, v = "int", int64(d)
	case scenario.Temp:
		tag, v = "temp", int64(d)
	case *battlefield.HexData:
		tag, v = "hex", d
	default:
		return "", nil, fmt.Errorf("no codec for node data type %T", d)
	}
	raw, err := json.Marshal(v)
	return tag, raw, err
}

// decodeData is encodeData's inverse. A hex may only hold units a live
// battle can: a side that exists and a positive strength.
func decodeData(tag string, raw json.RawMessage) (platform.NodeData, error) {
	switch tag {
	case "int":
		var v int64
		err := json.Unmarshal(raw, &v)
		return platform.IntData(v), err
	case "temp":
		var v int64
		err := json.Unmarshal(raw, &v)
		return scenario.Temp(v), err
	case "hex":
		h := &battlefield.HexData{}
		if err := json.Unmarshal(raw, h); err != nil {
			return nil, err
		}
		for _, units := range append([][]battlefield.Unit{h.Units}, h.Out[:]...) {
			for _, u := range units {
				if u.Side > battlefield.Blue || u.Strength < 1 {
					return nil, fmt.Errorf("impossible unit %+v", u)
				}
			}
		}
		return h, nil
	}
	return nil, fmt.Errorf("no codec for node data type name %q", tag)
}

func mpiStats(s statsJSON) mpi.Stats {
	return mpi.Stats{
		MessagesSent:     s.MsgsSent,
		MessagesReceived: s.MsgsRecv,
		BytesSent:        s.BytesSent,
		BytesReceived:    s.BytesRecv,
		IdleSeconds:      s.IdleS,
	}
}
