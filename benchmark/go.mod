module websyn/benchmark

go 1.23

require websyn v0.0.0

replace websyn => ../
