module parajoin/bench

go 1.22

require parajoin v0.0.0

replace parajoin => ../
