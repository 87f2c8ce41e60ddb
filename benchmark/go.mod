module lsmkv/benchmark

go 1.22

require lsmkv v0.0.0

replace lsmkv => ../
