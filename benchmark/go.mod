module ppscan/benchmark

go 1.22

require ppscan v0.0.0

replace ppscan => ../
