module fedtrans/benchmark

go 1.24

require fedtrans v0.0.0

replace fedtrans => ../
