package main

// The pinned public surface. Every call the benchmark makes into
// ic2mpi/internal/... is named in this file and nowhere else
// (TestOnlyAPIImportsInternal enforces it), so a refactor of the simulator
// sees exactly what the benchmark depends on. Beyond the functions bound
// below, the benchmark uses these methods and fields of the aliased types:
//
//	Scenario   .Name .Runner .Graph() .Config(p) .Run(p) .Normalize(p)
//	Axes       .Size() .Cells() .Single()
//	JobSpec    .Axes .Format .Trace
//	PlatformConfig  .Graph .InitialPartition .Iterations .Kernel
//	                .KernelWorkers .Trace .CheckpointEvery .CheckpointSink
//	                .ResumeFrom
//	PlatformResult  .Elapsed .Migrations .Stats[i].MessagesSent/.BytesSent
//	NetModel   .ArrivalTime
//	Balancer   .Plan
//	Comm       .Rank .Size .Isend .Recv .Barrier .Allgather
//	Manifest   .Encode .RunShard .Merge
//	Server     .Handler .Close .RestoreError
//
// Kernels are selected only by the names goroutine, event and pevent. The
// benchmark never touches buffer pooling, rank-state representation or
// test hooks.

import (
	"ic2mpi/internal/checkpoint"
	"ic2mpi/internal/experiments"
	"ic2mpi/internal/fault"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/partition"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/server"
	"ic2mpi/internal/shard"
	"ic2mpi/internal/trace"
	"ic2mpi/internal/workload"
)

type (
	Scenario       = scenario.Scenario
	Params         = scenario.Params
	Result         = scenario.Result
	Graph          = graph.Graph
	NetModel       = netmodel.Model
	Quality        = partition.Quality
	PlatformConfig = platform.Config
	PlatformResult = platform.Result
	ProcGraph      = platform.ProcGraph
	Balancer       = platform.Balancer
	RunSnapshot    = platform.RunSnapshot
	NodeFunc       = platform.NodeFunc
	MPIOptions     = mpi.Options
	Comm           = mpi.Comm
	Axes           = experiments.Axes
	SweepReport    = experiments.SweepReport
	TraceRecorder  = trace.Recorder
	SnapshotMeta   = checkpoint.Meta
	Manifest       = shard.Manifest
	ServerConfig   = server.Config
	JobSpec        = server.JobSpec
	Server         = server.Server
)

var (
	scenarioGet   = scenario.Get
	partitionOn   = scenario.PartitionOn
	newBalancerOn = scenario.NewBalancerOn

	hexGrid = graph.HexGrid

	initID       = workload.InitID
	averaging    = workload.Averaging
	uniformGrain = workload.UniformGrain

	netmodelNew = netmodel.New
	faultParse  = fault.Parse
	faultWrap   = fault.Wrap

	partitionEvaluate = partition.Evaluate

	platformRun = platform.Run

	mpiRun      = mpi.Run
	parseKernel = mpi.ParseKernel

	parseAxes    = experiments.ParseAxes
	runSweep     = experiments.RunSweep
	runSweepWith = experiments.RunSweepWith
	writeReport  = experiments.WriteReport
	cellKey      = experiments.CellKey

	traceWriteJSONL = trace.WriteJSONL

	checkpointEncode = checkpoint.Encode
	checkpointDecode = checkpoint.Decode

	shardNew = shard.New

	serverNew     = server.New
	decodeJobSpec = server.DecodeJobSpec
)

const fineGrain = workload.FineGrain

// setParallelism bounds the cells experiments.RunSweep runs at once.
func setParallelism(n int) { experiments.Parallelism = n }
