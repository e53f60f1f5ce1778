package fixture

// localDst hands the plan a locally allocated destination: the caller
// owns it, so returning it is fine.
func (d *detector) localDst(t int) ([]complex128, error) {
	return d.bank.FilterInto(make([]complex128, d.bank.SignalLen()), t)
}

// callerDst writes into the caller's own slice: theirs to keep.
func (d *detector) callerDst(dst, v []complex128) []complex128 {
	return d.up.Execute(dst, v)
}

// reslice re-slices the scratch field into itself — ownership-preserving,
// not an escape.
func (d *detector) reslice(v []complex128, t int) error {
	d.scratch = d.scratch[:cap(d.scratch)]
	_, err := d.bank.FilterInto(d.scratch, t)
	return err
}

// copyOut snapshots the reused buffer into a caller-owned slice — the
// sanctioned way to hand results out.
func (d *detector) copyOut(t int) ([]complex128, error) {
	out, err := d.bank.FilterInto(d.scratch, t)
	if err != nil {
		return nil, err
	}
	snap := make([]complex128, len(out))
	copy(snap, out)
	return snap, nil
}
