package model

import (
	"math/rand"

	"fedtrans/internal/nn"
)

// Spec describes an initial architecture to instantiate. It is the
// configuration-level counterpart of the paper's "initial model" choices
// (NASBench201 base, modified ResNet18, MobileNetV3-small).
type Spec struct {
	// Family selects the cell kind: "dense", "conv", or "attention".
	Family string
	// Input is the per-sample input shape: [D] for dense, [C,H,W] for
	// conv, [T,D] for attention.
	Input []int
	// Hidden lists per-cell widths: dense units, conv channels, or
	// attention FF widths (the attention model dim is Input[1]).
	Hidden []int
	// Classes is the classifier output dimension.
	Classes int
	// Heads is the attention head count (attention family only;
	// 0 means 1). Must divide the model dimension Input[1].
	Heads int
}

// Build instantiates a model from the spec with fresh random weights
// using the shared process-wide ID scope. Independent runs that may
// execute concurrently (parallel experiment grid cells) should use
// BuildScoped with a fresh IDGen instead, which keeps IDs deterministic
// regardless of goroutine scheduling.
func (s Spec) Build(rng *rand.Rand) *Model { return s.BuildScoped(rng, globalIDs) }

// BuildScoped instantiates a model from the spec, allocating model and
// cell IDs from the given generator. Models derived from this one
// (Derive, DeepenCell) inherit the generator.
func (s Spec) BuildScoped(rng *rand.Rand, gen *IDGen) *Model {
	if gen == nil {
		gen = globalIDs
	}
	m := &Model{
		ID:         gen.nextModelID(),
		ParentID:   -1,
		InputShape: append([]int(nil), s.Input...),
		Classes:    s.Classes,
		ids:        gen,
	}
	switch s.Family {
	case "dense":
		in := s.Input[0]
		for _, h := range s.Hidden {
			m.appendCell(nn.NewDenseCell(in, h, true, rng))
			in = h
		}
		m.Head = nn.NewDenseCell(in, s.Classes, false, rng)
	case "conv":
		ch, h, w := s.Input[0], s.Input[1], s.Input[2]
		for i, oc := range s.Hidden {
			stride := 1
			if i > 0 && i%2 == 0 && h > 2 {
				stride = 2
			}
			cell := nn.NewConv2DCell(ch, oc, 3, stride, true, rng)
			cell.SetSpatial(h, w)
			m.appendCell(cell)
			if stride == 2 {
				h = (h + 1) / 2
				w = (w + 1) / 2
			}
			ch = oc
		}
		m.appendCell(nn.NewGlobalAvgPoolCell())
		m.Head = nn.NewDenseCell(ch, s.Classes, false, rng)
	case "attention":
		t, d := s.Input[0], s.Input[1]
		heads := s.Heads
		if heads < 1 {
			heads = 1
		}
		for _, ff := range s.Hidden {
			m.appendCell(nn.NewAttentionCellHeads(d, ff, t, heads, rng))
		}
		m.appendCell(nn.NewMeanTokensCell())
		m.Head = nn.NewDenseCell(d, s.Classes, false, rng)
	case "residual":
		d := s.Input[0]
		for _, h := range s.Hidden {
			m.appendCell(nn.NewResidualDenseCell(d, h, rng))
		}
		m.Head = nn.NewDenseCell(d, s.Classes, false, rng)
	default:
		panic("model: unknown spec family " + s.Family)
	}
	return m
}

// ResetIDs resets the shared ID scope; used by tests for reproducible
// IDs. Scoped runs (BuildScoped with a fresh IDGen) do not need it.
func ResetIDs() { globalIDs.model.Store(0); globalIDs.cell.Store(0) }

func (m *Model) appendCell(c nn.Cell) {
	id := m.gen().nextCellID()
	m.Cells = append(m.Cells, CellSlot{Cell: c, ID: id, AncestorID: id, InheritedFrac: 1})
}

// Derive clones the model as a child: new model ID (from the parent's ID
// scope), ParentID set, lineage (ancestor IDs, inherited fractions)
// preserved so similarity can relate the pair.
func (m *Model) Derive(round int) *Model {
	c := m.Clone()
	c.ID = m.gen().nextModelID()
	c.ParentID = m.ID
	c.BornRound = round
	return c
}

// NASBenchLikeSpec returns the scaled-down dense analogue of the paper's
// NASBench201 base model for the FEMNIST profile.
func NASBenchLikeSpec(inputDim, classes int) Spec {
	return Spec{Family: "dense", Input: []int{inputDim}, Hidden: []int{8}, Classes: classes}
}

// ResNetLikeSpec returns the scaled-down convolutional analogue of the
// paper's modified small ResNet18 (Speech Command / OpenImage initial
// model).
func ResNetLikeSpec(channels, h, w, classes int) Spec {
	return Spec{Family: "conv", Input: []int{channels, h, w}, Hidden: []int{4}, Classes: classes}
}

// MobileNetLikeSpec returns the scaled-down convolutional analogue of
// MobileNetV3-small (CIFAR-10 initial model).
func MobileNetLikeSpec(channels, h, w, classes int) Spec {
	return Spec{Family: "conv", Input: []int{channels, h, w}, Hidden: []int{6}, Classes: classes}
}

// ViTLikeSpec returns the attention-family spec for the Table 4
// generality experiment.
func ViTLikeSpec(tokens, dim, ff, classes int) Spec {
	return Spec{Family: "attention", Input: []int{tokens, dim}, Hidden: []int{ff}, Classes: classes}
}

// InitialSpec mirrors Appendix A.1's per-dataset initial models at
// reproduction scale: MobileNet-like for cifar10, ResNet-like for speech
// and openimage, ViT-like for vit, and the small dense NASBench analogue
// for everything else — femnist, and the scale profile, whose tiny dense
// task keeps massive rounds on the coordinator, not the kernels. inputShape is the per-sample shape of the image and token
// profiles, featureDim the flat width the dense one takes.
func InitialSpec(profile string, inputShape []int, featureDim, classes int) Spec {
	switch profile {
	case "cifar10":
		return MobileNetLikeSpec(inputShape[0], inputShape[1], inputShape[2], classes)
	case "speech", "openimage":
		return ResNetLikeSpec(inputShape[0], inputShape[1], inputShape[2], classes)
	case "vit":
		return ViTLikeSpec(inputShape[0], inputShape[1], 8, classes)
	default:
		return NASBenchLikeSpec(featureDim, classes)
	}
}

// SpecLike reconstructs the Spec of this model's current architecture
// (hidden widths per parameterized cell). Baselines use it to adopt "the
// largest model transformed by FedTrans" as their input model (§A.1).
func (m *Model) SpecLike() Spec {
	s := Spec{Input: append([]int(nil), m.InputShape...), Classes: m.Classes}
	for i := range m.Cells {
		switch c := m.Cells[i].Cell.(type) {
		case *nn.DenseCell:
			s.Family = "dense"
			s.Hidden = append(s.Hidden, c.OutDim())
		case *nn.Conv2DCell:
			s.Family = "conv"
			s.Hidden = append(s.Hidden, c.OutCh())
		case *nn.AttentionCell:
			s.Family = "attention"
			s.Hidden = append(s.Hidden, c.FF())
			s.Heads = c.Heads()
		case *nn.ResidualDenseCell:
			s.Family = "residual"
			s.Hidden = append(s.Hidden, c.Hidden())
		}
	}
	return s
}

// Scaled returns a copy of the spec with every hidden width multiplied by
// ratio (minimum 1). HeteroFL / SplitMix / FLuID use it to derive
// width-reduced submodels.
func (s Spec) Scaled(ratio float64) Spec {
	out := Spec{Family: s.Family, Input: append([]int(nil), s.Input...), Classes: s.Classes, Heads: s.Heads}
	for _, h := range s.Hidden {
		w := int(float64(h)*ratio + 0.5)
		if w < 1 {
			w = 1
		}
		out.Hidden = append(out.Hidden, w)
	}
	return out
}
