// Package resource defines the resource dimensions of the simulated data
// center (CPU, memory, disk I/O, network I/O) and a weighted max-min fair
// sharing solver used by hosts to divide capacity among collocated
// consumers.
package resource

import (
	"fmt"
	"strings"
)

// Kind identifies one resource dimension.
type Kind int

// The four resource dimensions tracked throughout the system. They mirror
// the resources HybridMR's Phase II manages: CPU, memory, and I/O (split
// into disk and network so that shuffle traffic and HDFS traffic contend
// realistically).
const (
	CPU Kind = iota + 1
	Memory
	DiskIO
	NetIO
)

// NumKinds is the number of resource dimensions.
const NumKinds = 4

// Kinds lists all resource dimensions in canonical order.
func Kinds() [NumKinds]Kind {
	return [NumKinds]Kind{CPU, Memory, DiskIO, NetIO}
}

// String returns the conventional short name of the resource.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case Memory:
		return "mem"
	case DiskIO:
		return "dio"
	case NetIO:
		return "nio"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Vector holds one value per resource dimension. Units by convention:
// CPU in cores (1.0 = one fully busy core), Memory in MB, DiskIO and NetIO
// in MB/s. The zero Vector is valid and means "nothing".
type Vector [NumKinds]float64

// NewVector builds a vector from named components.
func NewVector(cpu, memMB, diskMBps, netMBps float64) Vector {
	var v Vector
	v[CPU.index()] = cpu
	v[Memory.index()] = memMB
	v[DiskIO.index()] = diskMBps
	v[NetIO.index()] = netMBps
	return v
}

func (k Kind) index() int { return int(k) - 1 }

// Get returns the component for kind k.
func (v Vector) Get(k Kind) float64 { return v[k.index()] }

// Set returns a copy of v with component k replaced.
func (v Vector) Set(k Kind, val float64) Vector {
	v[k.index()] = val
	return v
}

// Add returns v + o component-wise.
func (v Vector) Add(o Vector) Vector {
	for i := range v {
		v[i] += o[i]
	}
	return v
}

// Sub returns v - o component-wise.
func (v Vector) Sub(o Vector) Vector {
	for i := range v {
		v[i] -= o[i]
	}
	return v
}

// Scale returns v scaled by f.
func (v Vector) Scale(f float64) Vector {
	for i := range v {
		v[i] *= f
	}
	return v
}

// Div returns the component-wise quotient; components where o is zero
// yield zero rather than Inf, because a zero divisor in this codebase
// always means "dimension unused".
func (v Vector) Div(o Vector) Vector {
	for i := range v {
		if o[i] == 0 {
			v[i] = 0
		} else {
			v[i] /= o[i]
		}
	}
	return v
}

// Min returns the component-wise minimum.
func (v Vector) Min(o Vector) Vector {
	for i := range v {
		if o[i] < v[i] {
			v[i] = o[i]
		}
	}
	return v
}

// Max returns the component-wise maximum.
func (v Vector) Max(o Vector) Vector {
	for i := range v {
		if o[i] > v[i] {
			v[i] = o[i]
		}
	}
	return v
}

// IsZero reports whether every component is zero.
func (v Vector) IsZero() bool {
	for i := range v {
		if v[i] != 0 {
			return false
		}
	}
	return true
}

// String formats the vector with short component names.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range Kinds() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.3g", k, v.Get(k))
	}
	b.WriteByte('}')
	return b.String()
}
