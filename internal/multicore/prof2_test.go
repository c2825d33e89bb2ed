package multicore

import (
	"context"
	"testing"

	"mcbench/internal/badco"
	"mcbench/internal/cache"
	"mcbench/internal/trace"
)

func BenchmarkProfileApprox(b *testing.B) {
	trs := TraceMap(trace.GenerateSuite(testLen))
	m, err := BuildModels(context.Background(), trs, []string{"mcf", "soplex", "gcc", "libquantum"}, badco.DefaultBuildConfig())
	if err != nil {
		b.Fatal(err)
	}
	w := Workload{"mcf", "soplex", "gcc", "libquantum"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		approximate(context.Background(), w, m, cache.LRU, 0)
	}
}
