module fisql/bench

go 1.22

require fisql v0.0.0

replace fisql => ../
