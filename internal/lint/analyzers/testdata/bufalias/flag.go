// Package fixture exercises the bufalias analyzer: escaping aliases of
// reused plan buffers live in this file, the ownership-preserving idioms
// in clean.go.
package fixture

import "github.com/uwb-sim/concurrent-ranging/internal/dsp"

// detector models a component with detector-owned scratch buffers reused
// across rounds.
type detector struct {
	scratch []complex128
	keep    []complex128
	history [][]complex128
	up      *dsp.UpsamplePlan
	bank    *dsp.MatchedFilterBank
}

// result captures detection output.
type result struct {
	taps []complex128
}

// returnAlias returns the reused scratch buffer to the caller.
func (d *detector) returnAlias(v []complex128) []complex128 {
	out := d.up.Execute(d.scratch, v)
	return out // want `returning out aliases a reused dsp plan buffer`
}

// storeAlias parks the alias in another struct field.
func (d *detector) storeAlias(t int) error {
	out, err := d.bank.FilterInto(d.scratch, t)
	if err != nil {
		return err
	}
	d.keep = out // want `storing out into field d\.keep`
	return nil
}

// appendAlias keeps the alias in a history slice.
func (d *detector) appendAlias(v []complex128) {
	out := d.up.Execute(d.scratch, v)
	d.history = append(d.history, out) // want `appending out keeps an alias`
}

// literalAlias embeds the alias in a composite literal.
func (d *detector) literalAlias(v []complex128) result {
	out := d.up.Execute(d.scratch, v)
	return result{taps: out} // want `composite literal captures out`
}

// slicedAlias escapes through a slicing of the tainted local.
func (d *detector) slicedAlias(t int) ([]complex128, error) {
	out, err := d.bank.FilterInto(d.scratch, t)
	if err != nil {
		return nil, err
	}
	return out[:8], nil // want `returning out\[:8\] aliases a reused dsp plan buffer`
}
