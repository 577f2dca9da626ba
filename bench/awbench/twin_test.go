package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A daemon that dies at once, or never answers, fails the session fast;
// the process is gone and its checkpoint directory removed either way.
func TestTwinSessionFailsInsteadOfHanging(t *testing.T) {
	dir := t.TempDir()
	for name, script := range map[string]string{
		"exits":  "#!/bin/sh\nexit 3\n",
		"silent": "#!/bin/sh\nexec sleep 60\n",
	} {
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(dir, name)
			if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
				t.Fatal(err)
			}
			tmp := t.TempDir()
			b := &bench{tmp: tmp, awserved: bin}
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			start := time.Now()
			if _, err := b.twinSession(ctx, "twin.json"); err == nil {
				t.Fatal("session against a broken daemon succeeded")
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("session took %v to fail", d)
			}
			if left, _ := filepath.Glob(filepath.Join(tmp, "ckpt-*")); len(left) > 0 {
				t.Errorf("checkpoint directories left behind: %v", left)
			}
		})
	}
}
