module github.com/streamagg/correlated/benchmarks/corrdbench

go 1.22

require github.com/streamagg/correlated v0.0.0

replace github.com/streamagg/correlated => ../..
