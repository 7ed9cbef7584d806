module mpquic/bench

go 1.22

require mpquic v0.0.0

replace mpquic => ../
