module prestroid/benchmark

go 1.22

require prestroid v0.0.0

replace prestroid => ../
