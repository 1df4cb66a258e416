module tetrabft/benchmark

go 1.24

require tetrabft v0.0.0

replace tetrabft => ../
