module faultyrank/benchmark

go 1.24

require faultyrank v0.0.0

replace faultyrank => ../
