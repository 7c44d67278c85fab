module tencentrec/benchmark

go 1.22

require tencentrec v0.0.0

replace tencentrec => ../
