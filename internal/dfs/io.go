package dfs

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/resource"
)

// TransferStats reports a completed read or write.
type TransferStats struct {
	// File is the file involved.
	File string
	// SizeMB is the amount of data moved.
	SizeMB float64
	// Elapsed is the transfer's wall time.
	Elapsed time.Duration
	// RateMBps is SizeMB divided by Elapsed.
	RateMBps float64
}

// ReadOptions tune a streaming read.
type ReadOptions struct {
	// RateMBps is the full-speed streaming rate (default 60, a single
	// sequential HDFS stream on the paper's SCSI disks).
	RateMBps float64
	// CPUPerMBps is CPU cost per MB/s of streaming (checksumming and
	// deserialization; default 0.004 cores per MB/s).
	CPUPerMBps float64
}

func (o ReadOptions) withDefaults() ReadOptions {
	if o.RateMBps <= 0 {
		o.RateMBps = 60
	}
	if o.CPUPerMBps <= 0 {
		o.CPUPerMBps = 0.004
	}
	return o
}

// Read streams a whole file to the reader node. Node-local and host-local
// blocks cost disk bandwidth; remote blocks cost network bandwidth on the
// reader and disk bandwidth on the replica holder. onDone receives the
// stats when the stream completes.
func (fs *FileSystem) Read(name string, reader cluster.Node, opts ReadOptions, onDone func(TransferStats)) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("dfs: read %q: not found", name)
	}
	if reader == nil {
		return fmt.Errorf("dfs: read %q: nil reader", name)
	}
	for _, b := range f.Blocks {
		if len(b.Replicas) == 0 {
			return fmt.Errorf("dfs: read %q: block %s has no live replicas", name, b.ID)
		}
	}
	opts = opts.withDefaults()
	nodeLocal, hostLocal, remote, err := fs.LocalityFractions(name, reader)
	if err != nil {
		return err
	}
	localFrac := nodeLocal + hostLocal
	demand := resource.NewVector(
		opts.CPUPerMBps*opts.RateMBps,
		64, // stream buffer
		opts.RateMBps*localFrac,
		opts.RateMBps*remote,
	)
	start := fs.engine.Now()
	main := &cluster.Consumer{
		Name:   fmt.Sprintf("dfs-read:%s@%s", name, reader.Name()),
		Demand: demand,
		Work:   f.SizeMB / opts.RateMBps,
	}
	main.OnComplete = func() {
		if onDone == nil {
			return
		}
		elapsed := fs.engine.Now() - start
		rate := 0.0
		if s := elapsed.Seconds(); s > 0 {
			rate = f.SizeMB / s
		}
		onDone(TransferStats{File: name, SizeMB: f.SizeMB, Elapsed: elapsed, RateMBps: rate})
	}
	// Remote blocks also load the disks of the replica holders.
	if remote > 0 {
		fs.addRemoteServeLoad(f, reader, opts.RateMBps*remote, f.SizeMB*remote/opts.RateMBps/float64(maxInt(1, len(fs.datanodes)-1)))
	}
	return reader.Start(main)
}

// addRemoteServeLoad spreads server-side disk demand over the replica
// holders of f's non-local blocks for roughly the duration of the stream.
func (fs *FileSystem) addRemoteServeLoad(f *File, reader cluster.Node, totalRate, perNodeWork float64) {
	holders := make(map[cluster.Node]struct{})
	for _, b := range f.Blocks {
		if fs.BlockLocality(b, reader) != Remote {
			continue
		}
		holders[b.Replicas[0].node] = struct{}{}
	}
	if len(holders) == 0 {
		return
	}
	rate := totalRate / float64(len(holders))
	for n := range holders {
		serve := &cluster.Consumer{
			Name:   fmt.Sprintf("dfs-serve:%s@%s", f.Name, n.Name()),
			Demand: resource.NewVector(0.01, 0, rate, rate),
			Work:   perNodeWork,
		}
		// Server-side load is best-effort: if it cannot start (node
		// powered off mid-stream) the transfer still completes.
		_ = n.Start(serve)
	}
}

// WriteOptions tune a streaming write.
type WriteOptions struct {
	// RateMBps is the full-speed write rate (default 45: HDFS writes are
	// slower than reads due to the replication pipeline).
	RateMBps float64
	// CPUPerMBps is CPU cost per MB/s of streaming (default 0.005).
	CPUPerMBps float64
}

func (o WriteOptions) withDefaults() WriteOptions {
	if o.RateMBps <= 0 {
		o.RateMBps = 45
	}
	if o.CPUPerMBps <= 0 {
		o.CPUPerMBps = 0.005
	}
	return o
}

// Write creates a file and streams it from the writer node through the
// replication pipeline: local disk for the first replica, network plus
// remote disk for the others. onDone receives stats when the pipeline
// drains.
func (fs *FileSystem) Write(name string, sizeMB float64, writer cluster.Node, opts WriteOptions, onDone func(TransferStats)) error {
	if writer == nil {
		return fmt.Errorf("dfs: write %q: nil writer", name)
	}
	opts = opts.withDefaults()
	f, err := fs.CreateFile(name, sizeMB, writer)
	if err != nil {
		return err
	}
	// Fraction of replica traffic leaving the writer: every replica
	// beyond a writer-local first copy crosses the network.
	extraReplicas := float64(fs.replication - 1)
	if _, isDN := fs.byNode[writer]; !isDN {
		extraReplicas = float64(fs.replication)
	}
	localDisk := opts.RateMBps
	if _, isDN := fs.byNode[writer]; !isDN {
		localDisk = 0
	}
	demand := resource.NewVector(
		opts.CPUPerMBps*opts.RateMBps,
		64,
		localDisk,
		opts.RateMBps*extraReplicas,
	)
	start := fs.engine.Now()
	main := &cluster.Consumer{
		Name:   fmt.Sprintf("dfs-write:%s@%s", name, writer.Name()),
		Demand: demand,
		Work:   sizeMB / opts.RateMBps,
	}
	main.OnComplete = func() {
		if onDone == nil {
			return
		}
		elapsed := fs.engine.Now() - start
		rate := 0.0
		if s := elapsed.Seconds(); s > 0 {
			rate = sizeMB / s
		}
		onDone(TransferStats{File: name, SizeMB: sizeMB, Elapsed: elapsed, RateMBps: rate})
	}
	// Remote replicas absorb disk bandwidth on their holders.
	holders := make(map[cluster.Node]struct{})
	for _, b := range f.Blocks {
		for _, d := range b.Replicas {
			if d.node != writer {
				holders[d.node] = struct{}{}
			}
		}
	}
	if len(holders) > 0 {
		rate := opts.RateMBps * extraReplicas / float64(len(holders))
		perNodeWork := sizeMB * extraReplicas / opts.RateMBps / float64(len(holders))
		for n := range holders {
			serve := &cluster.Consumer{
				Name:   fmt.Sprintf("dfs-replica:%s@%s", name, n.Name()),
				Demand: resource.NewVector(0.01, 0, rate, rate),
				Work:   perNodeWork,
			}
			_ = n.Start(serve)
		}
	}
	return writer.Start(main)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// resourceVectorForCopy is the demand of a background re-replication
// stream on its destination node.
func resourceVectorForCopy(rate float64) resource.Vector {
	return resource.NewVector(0.02, 32, rate, rate)
}
