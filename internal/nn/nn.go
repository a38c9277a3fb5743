// Package nn describes the neuromorphic workloads MNSIM simulates: layer
// topologies (fully-connected, convolutional, pooling), the published VGG-16
// and CaffeNet networks used by the paper's case studies, the mapping of
// network layers onto computation banks (Section III.A: only layers holding
// Conv kernels or fully-connected weights become neuromorphic layers), and a
// fixed-point functional inference engine with error injection for the
// accuracy validation.
package nn

import (
	"fmt"

	"mnsim/internal/arch"
)

// LayerType distinguishes the network layer kinds MNSIM recognises.
type LayerType int

const (
	// Conv is a convolutional layer (becomes a computation bank).
	Conv LayerType = iota
	// FC is a fully-connected layer (becomes a computation bank).
	FC
	// Pool is a spatial max-pooling layer (folded into the preceding
	// bank's pooling module, Section III.A).
	Pool
)

// String implements fmt.Stringer.
func (t LayerType) String() string {
	switch t {
	case Conv:
		return "Conv"
	case FC:
		return "FC"
	case Pool:
		return "Pool"
	default:
		return fmt.Sprintf("LayerType(%d)", int(t))
	}
}

// Layer is one network layer description.
type Layer struct {
	Type LayerType
	// Conv fields.
	OutChannels, KernelW, KernelH, Stride, Pad int
	// FC fields.
	In, Out int
	// Pool fields.
	PoolK, PoolStride int
}

// Network is a whole application topology.
type Network struct {
	Name                   string
	InputW, InputH, InputC int
	Layers                 []Layer
}

// VGG16 returns the VGG-16 network of Simonyan & Zisserman on 224×224×3
// ImageNet inputs — the deep-CNN case study of Section VII.D.
func VGG16() Network {
	conv := func(out int) Layer {
		return Layer{Type: Conv, OutChannels: out, KernelW: 3, KernelH: 3, Stride: 1, Pad: 1}
	}
	pool := Layer{Type: Pool, PoolK: 2, PoolStride: 2}
	return Network{
		Name: "VGG-16", InputW: 224, InputH: 224, InputC: 3,
		Layers: []Layer{
			conv(64), conv(64), pool,
			conv(128), conv(128), pool,
			conv(256), conv(256), conv(256), pool,
			conv(512), conv(512), conv(512), pool,
			conv(512), conv(512), conv(512), pool,
			{Type: FC, In: 25088, Out: 4096},
			{Type: FC, In: 4096, Out: 4096},
			{Type: FC, In: 4096, Out: 1000},
		},
	}
}

// CaffeNet returns the CaffeNet/AlexNet topology (the Section III.A
// example: counting only the kernel- and weight-bearing layers).
func CaffeNet() Network {
	return Network{
		Name: "CaffeNet", InputW: 227, InputH: 227, InputC: 3,
		Layers: []Layer{
			{Type: Conv, OutChannels: 96, KernelW: 11, KernelH: 11, Stride: 4},
			{Type: Pool, PoolK: 3, PoolStride: 2},
			{Type: Conv, OutChannels: 256, KernelW: 5, KernelH: 5, Stride: 1, Pad: 2},
			{Type: Pool, PoolK: 3, PoolStride: 2},
			{Type: Conv, OutChannels: 384, KernelW: 3, KernelH: 3, Stride: 1, Pad: 1},
			{Type: Conv, OutChannels: 384, KernelW: 3, KernelH: 3, Stride: 1, Pad: 1},
			{Type: Conv, OutChannels: 256, KernelW: 3, KernelH: 3, Stride: 1, Pad: 1},
			{Type: Pool, PoolK: 3, PoolStride: 2},
			{Type: FC, In: 9216, Out: 4096},
			{Type: FC, In: 4096, Out: 4096},
			{Type: FC, In: 4096, Out: 1000},
		},
	}
}

// NeuromorphicLayers counts the layers that hold Conv kernels or FC weights
// — the computation banks of the accelerator (e.g. CaffeNet's 8, VGG-16's
// 16).
func (n Network) NeuromorphicLayers() int {
	count := 0
	for _, l := range n.Layers {
		if l.Type == Conv || l.Type == FC {
			count++
		}
	}
	return count
}

// Dims maps the network onto computation-bank layer dimensions:
//   - a Conv layer becomes a (kw·kh·Cin)×Cout weight matrix computed once
//     per output pixel (Passes = outW·outH), with a following Pool layer
//     folded into the bank's pooling module;
//   - cascaded Conv layers get the Eq. 6 line buffer sized by the *next*
//     conv's kernel;
//   - an FC layer becomes an In×Out matrix with one pass.
func (n Network) Dims() ([]arch.LayerDims, error) {
	w, h, c := n.InputW, n.InputH, n.InputC
	if len(n.Layers) == 0 {
		return nil, fmt.Errorf("nn: network %q has no layers", n.Name)
	}
	var dims []arch.LayerDims
	for i, l := range n.Layers {
		switch l.Type {
		case Conv:
			if w < 1 || h < 1 || c < 1 {
				return nil, fmt.Errorf("nn: layer %d of %q: no spatial input for conv", i, n.Name)
			}
			if l.KernelW < 1 || l.KernelH < 1 || l.OutChannels < 1 || l.Stride < 1 {
				return nil, fmt.Errorf("nn: layer %d of %q: bad conv geometry", i, n.Name)
			}
			outW := (w+2*l.Pad-l.KernelW)/l.Stride + 1
			outH := (h+2*l.Pad-l.KernelH)/l.Stride + 1
			if outW < 1 || outH < 1 {
				return nil, fmt.Errorf("nn: layer %d of %q: kernel larger than input", i, n.Name)
			}
			d := arch.LayerDims{
				Rows:        l.KernelW * l.KernelH * c,
				Cols:        l.OutChannels,
				Passes:      outW * outH,
				OutChannels: l.OutChannels,
			}
			// Fold a directly following pooling layer into this bank.
			if i+1 < len(n.Layers) && n.Layers[i+1].Type == Pool {
				d.PoolK = n.Layers[i+1].PoolK
			}
			// Line buffer for the next conv layer per Eq. 6.
			if next, nw := n.nextConv(i + 1); next != nil {
				d.OutBufLen = nw*(next.KernelH-1) + next.KernelW
			}
			dims = append(dims, d)
			w, h, c = outW, outH, l.OutChannels
		case Pool:
			if l.PoolStride < 1 || l.PoolK < 1 {
				return nil, fmt.Errorf("nn: layer %d of %q: bad pool geometry", i, n.Name)
			}
			w = (w-l.PoolK)/l.PoolStride + 1
			h = (h-l.PoolK)/l.PoolStride + 1
			if w < 1 || h < 1 {
				return nil, fmt.Errorf("nn: layer %d of %q: pooling exhausted the feature map", i, n.Name)
			}
		case FC:
			if l.In < 1 || l.Out < 1 {
				return nil, fmt.Errorf("nn: layer %d of %q: bad FC shape", i, n.Name)
			}
			if c > 0 && w > 0 && h > 0 && w*h*c != l.In {
				return nil, fmt.Errorf("nn: layer %d of %q: FC expects %d inputs but feature map is %d×%d×%d", i, n.Name, l.In, w, h, c)
			}
			dims = append(dims, arch.LayerDims{Rows: l.In, Cols: l.Out, Passes: 1})
			w, h, c = 0, 0, 0 // flattened from here on
		default:
			return nil, fmt.Errorf("nn: layer %d of %q: unknown type %d", i, n.Name, int(l.Type))
		}
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("nn: network %q has no neuromorphic layers", n.Name)
	}
	return dims, nil
}

// nextConv finds the next Conv layer at or after index i and the feature-map
// width feeding it, simulating the intervening pools.
func (n Network) nextConv(i int) (*Layer, int) {
	w, h, c := n.InputW, n.InputH, n.InputC
	for j := 0; j < len(n.Layers); j++ {
		l := n.Layers[j]
		switch l.Type {
		case Conv:
			if j >= i {
				return &n.Layers[j], w
			}
			if l.Stride < 1 {
				return nil, 0 // invalid geometry: Dims reports it when reached
			}
			w = (w+2*l.Pad-l.KernelW)/l.Stride + 1
			h = (h+2*l.Pad-l.KernelH)/l.Stride + 1
			c = l.OutChannels
		case Pool:
			if l.PoolStride < 1 {
				return nil, 0
			}
			w = (w-l.PoolK)/l.PoolStride + 1
			h = (h-l.PoolK)/l.PoolStride + 1
		case FC:
			return nil, 0
		}
	}
	_ = c
	_ = h
	return nil, 0
}
