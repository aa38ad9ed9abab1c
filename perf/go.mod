module pplivesim/perf

go 1.22

require pplivesim v0.0.0

replace pplivesim => ../
