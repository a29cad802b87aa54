module caligo/bench

go 1.22

require caligo v0.0.0

replace caligo => ../
