package simnet

// Closed reports whether the env has been closed.
func (e *Env) Closed() bool { return e.closed }
