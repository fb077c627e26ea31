package websyn

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkModuleBuilds runs the nested benchmark/ module's own vet
// and short tests. That module is compiled against internal/... but is
// invisible to a root `go build ./... && go test ./...`, so without this
// an API or flag break in this tree only shows up when the benchmark
// pipeline fails to produce numbers. It uses the harness's own cache
// directories (benchmark/run.sh), so it neither depends on nor pollutes
// the caller's.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		t.Fatal(err)
	}
	gocache, gotmp := filepath.Join(build, "gocache"), filepath.Join(build, "tmp")
	for _, dir := range []string{gocache, gotmp} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "-short", "./..."}} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "benchmark"
		cmd.Env = append(os.Environ(), "GOCACHE="+gocache, "GOTMPDIR="+gotmp)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("benchmark module: go %v: %v\n%s", args, err, out)
		}
	}
}
