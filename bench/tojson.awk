# `go test -bench` text -> JSON: one object per ^Benchmark line with ns_per_op,
# bytes_per_op and allocs_per_op, plus live_heap_bytes where the benchmark
# reports the live-heap-B column (the telemetry suite).
BEGIN { print "[" }
/^Benchmark/ {
	ns = ""; bytes = ""; allocs = ""; live = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i-1)
		if ($i == "B/op") bytes = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
		if ($i == "live-heap-B") live = $(i-1)
	}
	if (ns == "") next
	if (n++) print ","
	printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
		$1, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs)
	if (live != "") printf ", \"live_heap_bytes\": %s", live
	printf "}"
}
END { print "\n]" }
