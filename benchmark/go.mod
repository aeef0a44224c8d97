module madgo/benchmark

go 1.22

require madgo v0.0.0

replace madgo => ../
