package runner

import "repro/internal/server"

// Instance exposes a cursor's live warm instance, nil while crashed, to
// the tests.
func (tc *TimelineCursor) Instance() *server.Instance { return tc.ins }
