package server

// Orig exposes an instance's construction config to the external tests.
func (ins *Instance) Orig() Config { return ins.orig }
