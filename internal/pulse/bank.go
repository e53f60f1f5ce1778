package pulse

import "fmt"

// Bank holds the set of pulse templates an initiator matches against the
// received CIR (one per supported responder pulse shape, Sect. V). All
// templates are sampled at the same interval and zero-padded to a common
// length with a shared center index, so matched-filter peak positions are
// directly comparable across shapes.
type Bank struct {
	ts        float64
	shapes    []Shape
	templates [][]complex128
}

// NewBank builds a template bank at sampling interval ts for the given
// TC_PGDELAY register values. At least one register is required and every
// register must be in the usable range.
func NewBank(ts float64, regs ...byte) (*Bank, error) {
	if ts <= 0 {
		return nil, fmt.Errorf("pulse: sampling interval %g must be positive", ts)
	}
	if len(regs) == 0 {
		return nil, fmt.Errorf("pulse: bank needs at least one register value")
	}
	shapes := make([]Shape, len(regs))
	maxLen := 0
	for i, reg := range regs {
		s, err := ForRegister(reg)
		if err != nil {
			return nil, err
		}
		shapes[i] = s
		if n := s.TemplateLen(ts); n > maxLen {
			maxLen = n
		}
	}
	center := (maxLen - 1) / 2
	templates := make([][]complex128, len(shapes))
	for i, s := range shapes {
		raw := s.Template(ts)
		padded := make([]complex128, maxLen)
		offset := center - (len(raw)-1)/2
		copy(padded[offset:], raw)
		templates[i] = padded
	}
	return &Bank{ts: ts, shapes: shapes, templates: templates}, nil
}

// DefaultRegisters returns n well-separated TC_PGDELAY values. For n ≤ 4 it
// returns the paper's s1..s4 registers (0x93, 0xC8, 0xE6, 0xF0); larger n
// spreads evenly across the usable range. It returns an error when n is not
// in [1, NumShapes].
func DefaultRegisters(n int) ([]byte, error) {
	if n < 1 || n > NumShapes {
		return nil, fmt.Errorf("pulse: %d shapes requested, supported range [1, %d]", n, NumShapes)
	}
	paper := []byte{RegisterS1, RegisterS2, RegisterS3, RegisterS4}
	if n <= len(paper) {
		return paper[:n:n], nil
	}
	out := make([]byte, n)
	span := int(MaxRegister - DefaultRegister)
	for i := range out {
		out[i] = DefaultRegister + byte(i*span/(n-1))
	}
	return out, nil
}

// DefaultBank builds a bank of n default shapes at sampling interval ts.
func DefaultBank(ts float64, n int) (*Bank, error) {
	regs, err := DefaultRegisters(n)
	if err != nil {
		return nil, err
	}
	return NewBank(ts, regs...)
}

// Len returns the number of shapes in the bank.
func (b *Bank) Len() int { return len(b.shapes) }

// SampleInterval returns the sampling interval the templates use.
func (b *Bank) SampleInterval() float64 { return b.ts }

// Shape returns the i-th shape.
func (b *Bank) Shape(i int) Shape { return b.shapes[i] }

// Template returns the i-th unit-energy template. The caller must not
// modify the returned slice.
func (b *Bank) Template(i int) []complex128 { return b.templates[i] }
