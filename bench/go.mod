module spatialjoin/bench

go 1.22

require spatialjoin v0.0.0

replace spatialjoin => ../
