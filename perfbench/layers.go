package main

// coldNames are the five analyses of a cold or warm pass: spec.gzip, q13
// and q18 are dominated by collection, sjas and odb-c by cross-validation.
var coldNames = []string{"spec.gzip", "odb-c", "sjas", "odb-h.q13", "odb-h.q18"}

// The §4.6 and §7 workload lists of cmd/fuzzyphase/results.go.
var (
	section46Names = []string{"sjas", "odb-h.q2", "odb-h.q13", "odb-h.q18", "spec.gcc", "spec.mcf"}
	section7Names  = []string{"odb-c", "odb-h.q4", "odb-h.q13", "odb-h.q18", "spec.mcf", "spec.gzip"}
)

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct{ name, unit, better string }

// perLayer lists every per-layer metric a traced run reports, in
// BENCHMARK.json order. A traced run reports all of them; a layer the
// workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []layerMetric {
	var out []layerMetric
	each := func(names []string, metric, unit, better string) {
		for _, w := range names {
			out = append(out, layerMetric{metric + "." + w, unit, better})
		}
	}
	one := func(metric, unit, better string) { out = append(out, layerMetric{metric, unit, better}) }

	// profiler: collection, simulator included.
	each(coldNames, "collect_ms", "ms", "lower")
	each(coldNames, "sim_minst_per_s", "Minst/s", "higher")
	one("collect_alloc_mb", "MB", "lower")
	// profstore.
	each(coldNames, "store_get_ms", "ms", "lower")
	one("store_disk_hits", "count", "higher")
	one("store_misses", "count", "lower")
	// eipv.
	each(coldNames, "eipv_build_ms", "ms", "lower")
	// rtree.
	each(coldNames, "index_ms", "ms", "lower")
	each(coldNames, "cv_ms", "ms", "lower")
	each(coldNames, "features", "count", "lower")
	one("cv_alloc_mb", "MB", "lower")
	// profilefmt.
	each(coldNames, "decode_ms", "ms", "lower")
	each(coldNames, "profile_index_ms", "ms", "lower")
	each(coldNames, "upload_bytes", "bytes", "lower")
	// kmeans, sampling and the §4.6 in-sample tree build.
	each(section46Names, "kmeans_bestre_ms", "ms", "lower")
	each(section46Names, "tree_build_ms", "ms", "lower")
	each(section7Names, "sampling_evaluate_ms", "ms", "lower")
	// experiment memo.
	one("memo_hits", "count", "higher")
	one("memo_misses", "count", "lower")
	one("memo_shared", "count", "higher")
	// serve.
	one("server_p50_ms.analyze", "ms", "lower")
	one("server_p99_ms.analyze", "ms", "lower")
	one("admission_queued.heavy", "count", "lower")
	one("admission_shed.heavy", "count", "lower")
	one("server_cpu_ms_per_req", "ms", "lower")
	one("memo_hit_ratio", "ratio", "higher")
	one("gen_late_p99_ms", "ms", "lower")
	// tracing itself.
	one("trace_overhead_frac", "ratio", "lower")
	return out
}
