package nn

import "math"

// Adam implements the Adam optimizer with optional decoupled weight decay.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	params []*Tensor
	m      [][]float64
	v      [][]float64
	t      int
}

// NewAdam creates an Adam optimizer over params with the given learning
// rate and default moment coefficients (0.9, 0.999).
func NewAdam(params []*Tensor, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, p.Size())
		a.v[i] = make([]float64, p.Size())
	}
	return a
}

// Step applies one update using the gradients currently stored on the
// parameters, then leaves the gradients untouched (call ZeroGrad separately).
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j := range p.Data {
			g := p.Grad[j]
			if a.WeightDecay != 0 {
				g += float64(a.WeightDecay * p.Data[j])
			}
			m[j] = float64(a.Beta1*m[j]) + float64((1-a.Beta1)*g)
			v[j] = float64(a.Beta2*v[j]) + float64((1-a.Beta2)*g*g)
			mh := m[j] / bc1
			vh := v[j] / bc2
			p.Data[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// ZeroGrad clears the gradients of all managed parameters.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// ClipGradNorm scales gradients so their global L2 norm does not exceed max.
// It returns the pre-clipping norm.
func ClipGradNorm(params []*Tensor, max float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sq += float64(g * g)
		}
	}
	norm := math.Sqrt(sq)
	if norm > max && norm > 0 {
		scale := max / norm
		for _, p := range params {
			for j := range p.Grad {
				p.Grad[j] *= scale
			}
		}
	}
	return norm
}
