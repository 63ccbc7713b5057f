module blinktree/benchmark

go 1.22

require blinktree v0.0.0

replace blinktree => ../
