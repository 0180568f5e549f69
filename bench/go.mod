module seep/bench

go 1.24

require seep v0.0.0

replace seep => ../
