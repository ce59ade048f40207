module cphash/bench

go 1.22

require cphash v0.0.0

replace cphash => ../
