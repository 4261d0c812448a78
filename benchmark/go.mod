module planar/benchmark

go 1.22

require planar v0.0.0

replace planar => ../
